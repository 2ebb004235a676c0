let own x = x + 1
let by_exe x = own x
let by_test x = x * 2
let hook x = x - 1
let ( let* ) = Option.bind
let never = 0

module Ord = struct
  type t = int

  let compare = Int.compare
  let unnamed = 0
end
