module Sample = Renaming_rng.Sample

let validate ~n ~failures =
  if failures < 0 || failures >= n then
    invalid_arg "Crash_pattern: failures must be in [0, n)"

let random ~rng ~n ~failures ~horizon =
  validate ~n ~failures;
  if horizon < 1 then invalid_arg "Crash_pattern.random: horizon must be >= 1";
  let pids = Array.sub (Sample.permutation rng n) 0 failures in
  Array.to_list (Array.map (fun pid -> (Sample.uniform_int rng horizon, pid)) pids)

let burst ~rng ~n ~failures ~at ~width =
  validate ~n ~failures;
  (* A "burst" of zero crashes is a contradiction in terms: it only ever
     arises from an integer-division underflow at small [n] (e.g.
     [~failures:(n / 8)]), and silently returning [] would make the
     campaign report a crash cell that never crashed anything.  Fail
     loudly instead; genuinely optional crashes belong to [random],
     which documents [failures = 0]. *)
  if failures = 0 then invalid_arg "Crash_pattern.burst: failures must be >= 1";
  if at < 0 then invalid_arg "Crash_pattern.burst: at must be >= 0";
  if width < 1 then invalid_arg "Crash_pattern.burst: width must be >= 1";
  let pids = Array.sub (Sample.permutation rng n) 0 failures in
  Array.to_list (Array.map (fun pid -> (at + Sample.uniform_int rng width, pid)) pids)
