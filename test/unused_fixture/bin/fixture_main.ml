open Unused_fixture.Fixture

module Ints = Set.Make (Ord)

let () =
  let by_test = by_exe in
  let r =
    let* x = Some (by_test 1) in
    Some (Ints.cardinal (Ints.singleton x))
  in
  ignore r
