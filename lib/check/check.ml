type failure_report = {
  seed : int;
  original : Diff.failure;
  scenario : Gen.scenario;
  failure : Diff.failure;
}

type summary = { seeds_run : int; failures : failure_report list }

let run_seed ?families ?mutant ?soa_domains seed =
  Diff.run ?mutant ?soa_domains (Gen.generate ?families seed)

let run_seeds ?families ?mutant ?soa_domains ?(base = 0) ?progress ~n () =
  let failures = ref [] in
  for i = 0 to n - 1 do
    let seed = base + i in
    (match run_seed ?families ?mutant ?soa_domains seed with
    | None -> ()
    | Some original ->
        let scenario, failure =
          Shrink.minimize
            ~run:(Diff.run ?mutant ?soa_domains)
            (Gen.generate ?families seed)
            original
        in
        failures := { seed; original; scenario; failure } :: !failures);
    match progress with Some f -> f (i + 1) | None -> ()
  done;
  { seeds_run = n; failures = List.rev !failures }

let find_mutant_failure ?families ?soa_domains ?(max_seeds = 100) mutant =
  let rec scan seed =
    if seed >= max_seeds then None
    else
      match run_seed ?families ~mutant ?soa_domains seed with
      | None -> scan (seed + 1)
      | Some original ->
          Some
            (Shrink.minimize ~run:(Diff.run ~mutant ?soa_domains)
               (Gen.generate ?families seed)
               original)
  in
  scan 0

let pp_summary fmt s =
  if s.failures = [] then
    Format.fprintf fmt
      "check: %d seeds, no divergences, no invariant violations@."
      s.seeds_run
  else begin
    Format.fprintf fmt "check: %d seeds, %d FAILED@.@." s.seeds_run
      (List.length s.failures);
    List.iter
      (fun r ->
        Format.fprintf fmt "seed %d: %a@." r.seed Diff.pp_failure r.original;
        Format.fprintf fmt "shrunk reproducer (%a):@.%a@."
          Diff.pp_failure r.failure Gen.pp r.scenario;
        Format.fprintf fmt "replay: aqt_sim check --seed %d@.@." r.seed)
      s.failures
  end
