type verdict = {
  trials : int;
  failures : int;
  failure_rate : float;
  bound : float;
  holds : bool;
}

let check ~trials ~bound ~failed =
  if trials <= 0 then invalid_arg "Whp.check: trials must be positive";
  let failures = ref 0 in
  for i = 0 to trials - 1 do
    if failed i then incr failures
  done;
  let failures = !failures in
  let failure_rate = float_of_int failures /. float_of_int trials in
  (* Under the claimed bound p, failures ~ Binomial(trials, p): accept up
     to mean + 3 sigma, but never reject a single stray failure. *)
  let mean = bound *. float_of_int trials in
  let sigma = sqrt (mean *. (1. -. bound)) in
  let limit = Float.max 1. (mean +. (3. *. sigma)) in
  { trials; failures; failure_rate; bound; holds = float_of_int failures <= limit }
