(* Alcotest shortens a test's name to fit an 80-column row, and the room
   it leaves depends on the longest suite name the executable registers.
   Every test executable pads that column to the longest suite name of
   the whole tier ("parallel"), so a test prints under the same name
   whichever executable runs it. The padding suite holds no test. *)
let label_width = String.length "parallel"

let run name suites =
  Alcotest.run name (suites @ [ (String.make label_width '-', []) ])
