module Sample = Renaming_rng.Sample

type interval = { lo : float; mean : float; hi : float }

let mean arr = Array.fold_left ( +. ) 0. arr /. float_of_int (Array.length arr)

let mean_ci ?(resamples = 2000) ?(confidence = 0.95) ~rng samples =
  let n = Array.length samples in
  if n = 0 then invalid_arg "Bootstrap.mean_ci: empty sample";
  if confidence <= 0. || confidence >= 1. then
    invalid_arg "Bootstrap.mean_ci: confidence outside (0, 1)";
  if resamples < 1 then invalid_arg "Bootstrap.mean_ci: resamples must be >= 1";
  let means =
    Array.init resamples (fun _ ->
        let acc = ref 0. in
        for _ = 1 to n do
          acc := !acc +. samples.(Sample.uniform_int rng n)
        done;
        !acc /. float_of_int n)
  in
  Array.sort compare means;
  let alpha = (1. -. confidence) /. 2. in
  let index p = min (resamples - 1) (max 0 (int_of_float (p *. float_of_int resamples))) in
  { lo = means.(index alpha); mean = mean samples; hi = means.(index (1. -. alpha)) }
