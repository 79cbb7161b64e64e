(* Direct front end for the experiment suite: run experiments in-process,
   print their tables/notes and mirror CSVs to bench_results/.  The
   experiments themselves live in Aqt_experiments and
   are shared with the cached/journalled `aqt_sim campaign` orchestrator. *)

module Registry = Aqt_harness.Registry

let registry = Aqt_experiments.registry ()

let run_entry (e : Registry.entry) =
  Printf.printf "\n=== %s: %s ===\n\n" (String.uppercase_ascii e.name) e.title;
  Registry.print_result ~csv_dir:"bench_results" (e.run ())

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  match args with
  | [ "list" ] -> List.iter print_endline (Registry.names registry)
  | [] -> List.iter run_entry (Registry.all registry)
  | ids -> (
      (* Resolve every id before running any, so a typo costs nothing. *)
      match
        List.map
          (fun id -> Registry.resolve registry (String.lowercase_ascii id))
          ids
      with
      | entries -> List.iter run_entry entries
      | exception Failure msg ->
          Printf.eprintf "bench/main.exe: %s\n" msg;
          exit 2)
