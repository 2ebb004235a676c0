type scale = Quick | Full

let scale_name = function Quick -> "quick" | Full -> "full"

let sweep_ns = function
  | Quick -> [| 256; 512; 1024; 2048; 4096 |]
  | Full -> [| 256; 512; 1024; 2048; 4096; 8192; 16384; 32768; 65536 |]

let big_n = function Quick -> 4096 | Full -> 65536

let trials = function Quick -> 5 | Full -> 20

let whp_trials = function Quick -> 300 | Full -> 2000
