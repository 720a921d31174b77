(* Capacity-constrained scheduling: round semantics, the MILP oracle's
   optimality ordering, local search, and per-round certification. *)
open Netrec_graph
module Rng = Netrec_util.Rng
module Failure = Netrec_disrupt.Failure
module Commodity = Netrec_flow.Commodity
module Instance = Netrec_core.Instance
module Schedule = Netrec_core.Schedule
module Sched = Netrec_sched.Sched
module Check = Netrec_check.Check
module Budget = Netrec_resilience.Budget
module Pool = Netrec_parallel.Pool
module Fig_sched = Netrec_experiments.Fig_sched

let path_graph ?(capacity = 10.0) n =
  Graph.make ~n ~edges:(List.init (n - 1) (fun i -> (i, i + 1, capacity))) ()

let demand ?(amount = 5.0) src dst = Commodity.make ~src ~dst ~amount

let make_inst ?vertex_cost ?edge_cost g demands failure =
  Instance.make ?vertex_cost ?edge_cost ~graph:g ~demands ~failure ()

(* The pinned gate fixture is Fig_sched.smoke_scenario: two parallel
   corridors 0-1-2 and 0-3-4-2 between the demand endpoints, everything
   broken except the endpoint vertices, scheduled by
   Fig_sched.smoke_crews (3) crews.  Small enough that the oracle proves
   optimality in milliseconds, rich enough that order matters (restoring
   the short corridor first wins). *)
let gate_elements () =
  [ `Vertex 1; `Vertex 3; `Vertex 4; `Edge 0; `Edge 1; `Edge 2; `Edge 3;
    `Edge 4 ]

let ok_plan = function
  | Ok p -> p
  | Error e -> Alcotest.failf "of_order rejected: %s" (Schedule.order_error_to_string e)

(* ---- capacity and round chunking ---- *)

let test_capacity_rejects_bad () =
  Alcotest.check_raises "crews" (Invalid_argument "Sched.capacity: crews < 1")
    (fun () -> ignore (Sched.capacity ~crews:0 ()));
  Alcotest.check_raises "budget"
    (Invalid_argument "Sched.capacity: round_budget <= 0") (fun () ->
      ignore (Sched.capacity ~round_budget:0.0 ~crews:1 ()))

let test_rounds_respect_crews () =
  let inst = Fig_sched.smoke_scenario () in
  let cap = Sched.capacity ~crews:Fig_sched.smoke_crews () in
  let plan = ok_plan (Sched.of_order ~cap inst (gate_elements ())) in
  Alcotest.(check int) "ceil(8/3) rounds" 3 (List.length plan.Sched.rounds);
  List.iter
    (fun r ->
      Alcotest.(check bool) "crew cap" true
        (List.length r.Sched.elements <= Fig_sched.smoke_crews))
    plan.Sched.rounds

let test_rounds_respect_budget () =
  let g = path_graph 3 in
  let inst =
    make_inst
      ~vertex_cost:[| 1.0; 5.0; 1.0 |]
      ~edge_cost:[| 2.0; 2.0 |] g [ demand 0 2 ] (Failure.complete g)
  in
  let cap = Sched.capacity ~crews:10 ~round_budget:4.0 () in
  let plan =
    ok_plan
      (Sched.of_order ~cap inst [ `Vertex 0; `Edge 0; `Vertex 1; `Edge 1; `Vertex 2 ])
  in
  (* v0+e0 = 3 <= 4; v1 = 5 alone (over budget ships alone); e1+v2 = 3. *)
  Alcotest.(check int) "rounds" 3 (List.length plan.Sched.rounds);
  List.iteri
    (fun i r ->
      let want = [ 3.0; 5.0; 3.0 ] in
      Alcotest.(check (float 1e-9))
        (Printf.sprintf "round %d cost" i)
        (List.nth want i) r.Sched.cost)
    plan.Sched.rounds

let test_round_concat_equals_flat_order () =
  let inst = Fig_sched.smoke_scenario () in
  let order = gate_elements () in
  let cap = Sched.capacity ~crews:Fig_sched.smoke_crews () in
  let plan = ok_plan (Sched.of_order ~cap inst order) in
  Alcotest.(check bool) "concat = flat" true (Sched.order_of plan = order)

let test_empty_plan_reports_baseline () =
  let g = path_graph 3 in
  let inst = make_inst g [ demand 0 2 ] (Failure.complete g) in
  let plan = ok_plan (Sched.of_order inst []) in
  Alcotest.(check int) "no rounds" 0 (List.length plan.Sched.rounds);
  Alcotest.(check (float 1e-9)) "auc = baseline" plan.Sched.baseline
    plan.Sched.auc;
  Alcotest.(check (float 1e-9)) "baseline 0" 0.0 plan.Sched.baseline

let test_of_order_rejects_malformed () =
  let inst = Fig_sched.smoke_scenario () in
  match Sched.of_order inst [ `Vertex 99 ] with
  | Ok _ -> Alcotest.fail "accepted out-of-range vertex"
  | Error e ->
    Alcotest.(check bool) "structured error" true
      (e = Schedule.Out_of_range (`Vertex 99))

(* ---- oracle ---- *)

let test_oracle_proves_gate_instance () =
  let inst = Fig_sched.smoke_scenario () in
  let cap = Sched.capacity ~crews:Fig_sched.smoke_crews () in
  match Sched.oracle ~cap inst (gate_elements ()) with
  | Error _ -> Alcotest.fail "oracle refused the gate instance"
  | Ok r ->
    Alcotest.(check bool) "proved" true r.Sched.proved;
    Alcotest.(check int) "keeps the horizon" 3
      (List.length r.Sched.plan.Sched.rounds);
    (* Optimal play restores the short corridor (v1, e0, e1) in round
       one: satisfaction hits 1.0 immediately and stays there. *)
    List.iter
      (fun rd ->
        Alcotest.(check (float 1e-6)) "full service every round" 1.0
          rd.Sched.satisfied)
      r.Sched.plan.Sched.rounds;
    let greedy = Sched.greedy ~cap inst (Instance.repair_all inst) in
    Alcotest.(check bool) "oracle >= greedy" true
      (r.Sched.plan.Sched.auc >= greedy.Sched.auc -. 1e-6);
    (* The production pipeline is greedy then local search; the refined
       plan must land within 5% of the proved optimum. *)
    let refined, _ = Sched.local_search ~cap inst (Sched.order_of greedy) in
    Alcotest.(check bool) "refined >= greedy" true
      (refined.Sched.auc >= greedy.Sched.auc -. 1e-9);
    Alcotest.(check bool) "greedy+local-search regret within 5%" true
      (Sched.regret ~oracle:r.Sched.plan refined <= 0.05)

let test_oracle_milp_auc_consistent () =
  let inst = Fig_sched.smoke_scenario () in
  let cap = Sched.capacity ~crews:Fig_sched.smoke_crews () in
  match Sched.oracle ~cap inst (gate_elements ()) with
  | Error _ -> Alcotest.fail "oracle refused"
  | Ok r ->
    Alcotest.(check (float 1e-4)) "milp auc = evaluated auc"
      r.Sched.plan.Sched.auc r.Sched.milp_auc

let test_oracle_too_big_refused () =
  let inst = Fig_sched.smoke_scenario () in
  let cap = Sched.capacity ~crews:Fig_sched.smoke_crews () in
  match Sched.oracle ~var_cap:10 ~cap inst (gate_elements ()) with
  | Error (Sched.Too_big { vars; cap = c }) ->
    Alcotest.(check bool) "reports sizes" true (vars > c)
  | Ok _ | Error _ -> Alcotest.fail "oversized model not refused"

let test_oracle_malformed () =
  let inst = Fig_sched.smoke_scenario () in
  let cap = Sched.capacity ~crews:Fig_sched.smoke_crews () in
  match Sched.oracle ~cap inst [ `Edge (-1) ] with
  | Error (Sched.Malformed (Schedule.Out_of_range (`Edge (-1)))) -> ()
  | _ -> Alcotest.fail "malformed input not rejected"

(* ---- local search ---- *)

let worst_first_order () =
  (* Long corridor first, short corridor last: maximally back-loaded. *)
  [ `Vertex 3; `Vertex 4; `Edge 2; `Edge 3; `Edge 4; `Vertex 1; `Edge 0;
    `Edge 1 ]

let test_local_search_improves_one_move_order () =
  (* Round one holds the short corridor minus [edge 1] (swapped out for
     [vertex 3]): a single swap repairs the curve, and local search must
     find it and reach the proved optimum. *)
  let inst = Fig_sched.smoke_scenario () in
  let cap = Sched.capacity ~crews:Fig_sched.smoke_crews () in
  let start_order =
    [ `Edge 0; `Vertex 1; `Vertex 3; `Edge 1; `Vertex 4; `Edge 2; `Edge 3;
      `Edge 4 ]
  in
  let start = ok_plan (Sched.of_order ~cap inst start_order) in
  Alcotest.(check bool) "start is suboptimal" true (start.Sched.auc < 1.0);
  let plan, stats = Sched.local_search ~cap inst start_order in
  Alcotest.(check bool) "tried moves" true (stats.Sched.moves_tried > 0);
  Alcotest.(check bool) "applied a move" true (stats.Sched.moves_applied > 0);
  Alcotest.(check bool) "strictly improves" true
    (plan.Sched.auc > start.Sched.auc);
  match Sched.oracle ~cap inst (gate_elements ()) with
  | Error _ -> Alcotest.fail "oracle refused"
  | Ok r ->
    Alcotest.(check bool) "local search regret within 5%" true
      (Sched.regret ~oracle:r.Sched.plan plan <= 0.05)

let test_local_search_never_degrades () =
  (* The back-loaded worst order is a single-move plateau (no one swap
     can fill round one with the whole short corridor): the search may
     not improve it, but must never return anything worse. *)
  let inst = Fig_sched.smoke_scenario () in
  let cap = Sched.capacity ~crews:Fig_sched.smoke_crews () in
  let start = ok_plan (Sched.of_order ~cap inst (worst_first_order ())) in
  let plan, _ = Sched.local_search ~cap inst (worst_first_order ()) in
  Alcotest.(check bool) "never degrades" true
    (plan.Sched.auc >= start.Sched.auc -. 1e-9)

let test_local_search_deterministic_across_jobs () =
  (* From the back-loaded order and from the greedy order (the pipeline
     the sched gate ships), the sequential search and a 4-domain pool
     return the same plan and search statistics. *)
  let inst = Fig_sched.smoke_scenario () in
  let cap = Sched.capacity ~crews:Fig_sched.smoke_crews () in
  let greedy = Sched.greedy ~cap inst (Instance.repair_all inst) in
  List.iter
    (fun (name, start) ->
      let run pool = Sched.local_search ?pool ~cap inst start in
      let plan1, stats1 = run None in
      let plan4, stats4 = run (Some (Pool.create ~jobs:4)) in
      Alcotest.(check bool) (name ^ ": same plan") true (plan1 = plan4);
      Alcotest.(check bool) (name ^ ": same stats") true (stats1 = stats4))
    [ ("worst first", worst_first_order ()); ("greedy", Sched.order_of greedy) ]

let test_local_search_budget_trips () =
  let inst = Fig_sched.smoke_scenario () in
  let cap = Sched.capacity ~crews:Fig_sched.smoke_crews () in
  let budget = Budget.create ~work_cap:1 () in
  let _, stats = Sched.local_search ~budget ~cap inst (worst_first_order ()) in
  Alcotest.(check bool) "reports limit" true (stats.Sched.limited <> None)

(* ---- certification ---- *)

let test_certify_rounds_clean () =
  (* The greedy plan and the refined plan the sched gate ships (greedy +
     local search) both certify at every round prefix. *)
  let inst = Fig_sched.smoke_scenario () in
  let cap = Sched.capacity ~crews:Fig_sched.smoke_crews () in
  let greedy = Sched.greedy ~cap inst (Instance.repair_all inst) in
  let refined, _ = Sched.local_search ~cap inst (Sched.order_of greedy) in
  List.iter
    (fun (name, plan) ->
      let certs = Sched.certify_rounds inst plan in
      Alcotest.(check int) (name ^ ": one per round")
        (List.length plan.Sched.rounds) (List.length certs);
      List.iteri
        (fun i c ->
          if not (Check.ok c) then
            Alcotest.failf "%s round %d prefix: %s" name (i + 1)
              (Check.certificate_to_string c))
        certs)
    [ ("greedy", greedy); ("refined", refined) ]

(* ---- QCheck properties ---- *)

let random_instance rng =
  (* Small random connected-ish graphs with a ladder of extra chords. *)
  let n = 4 + Rng.int rng 3 in
  let spine = List.init (n - 1) (fun i -> (i, i + 1, 5.0 +. Rng.float rng 5.0)) in
  let chords =
    List.filter_map
      (fun i ->
        if Rng.bool rng && i + 2 < n then
          Some (i, i + 2, 5.0 +. Rng.float rng 5.0)
        else None)
      (List.init n Fun.id)
  in
  let g = Graph.make ~n ~edges:(spine @ chords) () in
  let dst = n - 1 in
  let demands = [ demand ~amount:(2.0 +. Rng.float rng 4.0) 0 dst ] in
  (* Break interior vertices and a random subset of edges; endpoints
     stay up so recovery is possible. *)
  let vertices =
    List.filter (fun v -> v <> 0 && v <> dst && Rng.bool rng)
      (List.init n Fun.id)
  in
  let edges =
    List.filter (fun _ -> Rng.bool rng) (List.init (Graph.ne g) Fun.id)
  in
  make_inst g demands (Failure.of_lists g ~vertices ~edges)

let broken_elements inst =
  let sol = Instance.repair_all inst in
  List.map (fun v -> `Vertex v) sol.Instance.repaired_vertices
  @ List.map (fun e -> `Edge e) sol.Instance.repaired_edges

let greedy_beats_random_perms_prop =
  QCheck.Test.make ~name:"greedy AUC >= random permutations" ~count:25
    QCheck.(int_bound 99)
    (fun seed ->
      let rng = Rng.create seed in
      let inst = random_instance rng in
      let cap = Sched.capacity ~crews:2 () in
      let greedy = Sched.greedy ~cap inst (Instance.repair_all inst) in
      let els = Array.of_list (broken_elements inst) in
      List.for_all
        (fun _ ->
          let a = Array.copy els in
          Rng.shuffle rng a;
          let p = ok_plan (Sched.of_order ~cap inst (Array.to_list a)) in
          greedy.Sched.auc >= p.Sched.auc -. 1e-6)
        [ 1; 2; 3 ])

let oracle_sandwich_prop =
  QCheck.Test.make ~name:"oracle >= greedy >= arbitrary" ~count:12
    QCheck.(int_bound 99)
    (fun seed ->
      let rng = Rng.create seed in
      let inst = random_instance rng in
      let els = broken_elements inst in
      let cap = Sched.capacity ~crews:2 () in
      if els = [] then true
      else
        let greedy = Sched.greedy ~cap inst (Instance.repair_all inst) in
        let arbitrary = ok_plan (Sched.of_order ~cap inst els) in
        match Sched.oracle ~cap inst els with
        | Error (Sched.Too_big _) ->
          (* Oversized draws still check the heuristic ordering. *)
          greedy.Sched.auc >= arbitrary.Sched.auc -. 1e-6
        | Error _ -> false
        | Ok r ->
          r.Sched.proved
          && r.Sched.plan.Sched.auc >= greedy.Sched.auc -. 1e-6
          && greedy.Sched.auc >= arbitrary.Sched.auc -. 1e-6)

let round_concat_prop =
  QCheck.Test.make ~name:"round concatenation equals flat order" ~count:30
    QCheck.(int_bound 99)
    (fun seed ->
      let rng = Rng.create seed in
      let inst = random_instance rng in
      let els = Array.of_list (broken_elements inst) in
      Rng.shuffle rng els;
      let order = Array.to_list els in
      let cap = Sched.capacity ~crews:(1 + Rng.int rng 3) () in
      let plan = ok_plan (Sched.of_order ~cap inst order) in
      Sched.order_of plan = order
      &&
      (* ... and the per-round curve matches the flat curve sampled at
         round boundaries. *)
      let flat = Schedule.in_order inst order in
      let sats = List.map (fun r -> r.Sched.satisfied) plan.Sched.rounds in
      let flat_sats =
        List.map (fun s -> s.Schedule.satisfied_after) flat.Schedule.steps
      in
      let rec boundaries acc taken = function
        | [] -> List.rev acc
        | r :: rest ->
          let taken = taken + List.length r.Sched.elements in
          boundaries (List.nth flat_sats (taken - 1) :: acc) taken rest
      in
      List.for_all2
        (fun a b -> Float.abs (a -. b) <= 1e-6)
        sats
        (boundaries [] 0 plan.Sched.rounds))

let prefixes_certify_prop =
  QCheck.Test.make ~name:"round prefixes certify clean" ~count:30
    QCheck.(int_bound 99)
    (fun seed ->
      let rng = Rng.create seed in
      let inst = random_instance rng in
      let els = Array.of_list (broken_elements inst) in
      Rng.shuffle rng els;
      let cap = Sched.capacity ~crews:(1 + Rng.int rng 3) () in
      let plan = ok_plan (Sched.of_order ~cap inst (Array.to_list els)) in
      List.for_all Check.ok (Sched.certify_rounds inst plan))

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  Alcotest.run "netrec_sched"
    [ ( "rounds",
        [ tc "capacity rejects bad" test_capacity_rejects_bad;
          tc "respect crews" test_rounds_respect_crews;
          tc "respect budget" test_rounds_respect_budget;
          tc "concat equals flat" test_round_concat_equals_flat_order;
          tc "empty plan baseline" test_empty_plan_reports_baseline;
          tc "rejects malformed" test_of_order_rejects_malformed ] );
      ( "oracle",
        [ tc "proves gate instance" test_oracle_proves_gate_instance;
          tc "milp auc consistent" test_oracle_milp_auc_consistent;
          tc "too big refused" test_oracle_too_big_refused;
          tc "malformed rejected" test_oracle_malformed ] );
      ( "local-search",
        [ tc "improves one-move order" test_local_search_improves_one_move_order;
          tc "never degrades" test_local_search_never_degrades;
          tc "deterministic across jobs"
            test_local_search_deterministic_across_jobs;
          tc "budget trips" test_local_search_budget_trips ] );
      ( "certify",
        [ tc "rounds certify clean" test_certify_rounds_clean ] );
      ( "properties",
        [ QCheck_alcotest.to_alcotest greedy_beats_random_perms_prop;
          QCheck_alcotest.to_alcotest oracle_sandwich_prop;
          QCheck_alcotest.to_alcotest round_concat_prop;
          QCheck_alcotest.to_alcotest prefixes_certify_prop ] ) ]
