module F = Unused_fixture.Fixture

let () = ignore (F.by_test 1 + F.hook 1)
