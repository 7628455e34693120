type violation = {
  trial : int;
  scenario : Scenario.t;
  failure : string;
  minimized : (Scenario.t * Shrinker.stats) option;
}

type report = { trials : int; violations : violation list }

let scenario_of_trial ~seed cfg i =
  (* One independent stream per trial, so a trial can be replayed
     without re-running its predecessors. *)
  Scenario_gen.scenario (Choice.of_rng (Rng.make ((seed * 1_000_003) + i))) cfg

(* Trial outcomes are pure functions of (seed, cfg, i); minimization is
   a pure function of the violating scenario. The pool gets the
   *selection* right — earliest index wins, results assembled in index
   order — so reports come out the same for every [jobs], and at
   [jobs <= 1] it runs the trials in order on the calling domain,
   generating nothing past the first violation under [stop_at_first].
   Minimization always happens in the calling domain, on the selected
   violations only. *)

let check_trial ~seed ~on_trial cfg i =
  let s = scenario_of_trial ~seed cfg i in
  on_trial i s;
  match Scenario.check s with Ok () -> None | Error e -> Some (s, e)

let violation_of ~minimize i (s, failure) =
  let minimized = if minimize then Some (Shrinker.minimize s) else None in
  { trial = i; scenario = s; failure; minimized }

let fuzz ?(minimize = true) ?(stop_at_first = true)
    ?(on_trial = fun _ _ -> ()) ?(jobs = 1) ~trials ~seed cfg =
  let mk = violation_of ~minimize in
  if stop_at_first then
    match
      Domain_pool.find_first ~jobs trials (check_trial ~seed ~on_trial cfg)
    with
    | None -> { trials; violations = [] }
    | Some (i, witness) -> { trials = i + 1; violations = [ mk i witness ] }
  else
    let outcomes =
      Domain_pool.map ~jobs trials (check_trial ~seed ~on_trial cfg)
    in
    let violations =
      Array.to_list outcomes
      |> List.mapi (fun i o -> (i, o))
      |> List.filter_map (fun (i, o) -> Option.map (mk i) o)
    in
    { trials; violations }
