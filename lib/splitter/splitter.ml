module Program = Renaming_sched.Program
open Program.Syntax

type outcome = Stop | Right | Down

let words_per_splitter = 2

let enter ~base ~pid =
  if pid < 0 then invalid_arg "Splitter.enter: negative pid";
  let x = base and y = base + 1 in
  let* () = Program.write_word ~idx:x ~value:(pid + 1) in
  let* door = Program.read_word y in
  if door = 1 then Program.return Right
  else
    let* () = Program.write_word ~idx:y ~value:1 in
    let* x_now = Program.read_word x in
    if x_now = pid + 1 then Program.return Stop else Program.return Down
