type shape =
  | Constant
  | Log
  | Log_squared
  | Log_log
  | Log_log_squared
  | Log_log_pow of int
  | Linear

let shape_name = function
  | Constant -> "1"
  | Log -> "log n"
  | Log_squared -> "log^2 n"
  | Log_log -> "loglog n"
  | Log_log_squared -> "(loglog n)^2"
  | Log_log_pow k -> Printf.sprintf "(loglog n)^%d" k
  | Linear -> "n"

let log2 x = log x /. log 2.

let eval_shape shape n =
  let n = Float.max n 4. in
  match shape with
  | Constant -> 1.
  | Log -> log2 n
  | Log_squared -> log2 n ** 2.
  | Log_log -> log2 (log2 n)
  | Log_log_squared -> log2 (log2 n) ** 2.
  | Log_log_pow k -> log2 (log2 n) ** float_of_int k
  | Linear -> n

type fit = { shape : shape; slope : float; intercept : float; r_squared : float }

let fit_shape shape points =
  let n = Array.length points in
  if n < 2 then invalid_arg "Fit.best_fit: need at least two points";
  let xs = Array.map (fun (x, _) -> eval_shape shape x) points in
  let ys = Array.map snd points in
  let nf = float_of_int n in
  let sum a = Array.fold_left ( +. ) 0. a in
  let mean_x = sum xs /. nf and mean_y = sum ys /. nf in
  let sxx = ref 0. and sxy = ref 0. and syy = ref 0. in
  for i = 0 to n - 1 do
    let dx = xs.(i) -. mean_x and dy = ys.(i) -. mean_y in
    sxx := !sxx +. (dx *. dx);
    sxy := !sxy +. (dx *. dy);
    syy := !syy +. (dy *. dy)
  done;
  (* A constant shape has zero variance in x; the best constant model is
     the mean, and R² measures how much of y's variance it explains
     (none, unless y is itself constant). *)
  if !sxx < 1e-12 then
    { shape; slope = 0.; intercept = mean_y; r_squared = (if !syy < 1e-12 then 1. else 0.) }
  else begin
    let slope = !sxy /. !sxx in
    let intercept = mean_y -. (slope *. mean_x) in
    let ss_res = ref 0. in
    for i = 0 to n - 1 do
      let pred = (slope *. xs.(i)) +. intercept in
      let r = ys.(i) -. pred in
      ss_res := !ss_res +. (r *. r)
    done;
    let r_squared = if !syy < 1e-12 then 1. else 1. -. (!ss_res /. !syy) in
    { shape; slope; intercept; r_squared }
  end

let default_candidates = [ Constant; Log; Log_squared; Log_log; Log_log_squared; Linear ]

let best_fit ?(candidates = default_candidates) points =
  match candidates with
  | [] -> invalid_arg "Fit.best_fit: no candidates"
  | first :: rest ->
    let best = ref (fit_shape first points) in
    let consider shape =
      let f = fit_shape shape points in
      if f.r_squared > !best.r_squared then best := f
    in
    List.iter consider rest;
    !best

let pp_fit fmt { shape; slope; intercept; r_squared } =
  Format.fprintf fmt "y = %.4f * %s %c %.4f  (R^2 = %.4f)" slope (shape_name shape)
    (if intercept >= 0. then '+' else '-')
    (Float.abs intercept) r_squared
