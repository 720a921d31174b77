open Netrec_graph
open Netrec_core
module Rng = Netrec_util.Rng
module Failure = Netrec_disrupt.Failure
module Commodity = Netrec_flow.Commodity
module Routing = Netrec_flow.Routing

let path_graph ?(capacity = 10.0) n =
  Graph.make ~n ~edges:(List.init (n - 1) (fun i -> (i, i + 1, capacity))) ()

(* The 6-vertex bottleneck fixture. *)
let fixture () =
  Graph.make ~n:6
    ~edges:
      [ (0, 1, 10.0); (1, 2, 10.0); (0, 3, 10.0); (3, 4, 10.0); (4, 5, 10.0);
        (2, 5, 10.0); (1, 4, 3.0) ]
    ()

let demand ?(amount = 5.0) src dst = Commodity.make ~src ~dst ~amount

let make_inst ?vertex_cost ?edge_cost g demands failure =
  Instance.make ?vertex_cost ?edge_cost ~graph:g ~demands ~failure ()

(* ---- Instance ---- *)

let test_instance_defaults () =
  let g = fixture () in
  let inst = make_inst g [ demand 0 5 ] (Failure.none g) in
  Alcotest.(check (float 1e-9)) "unit vertex cost" 1.0 inst.Instance.vertex_cost.(0);
  Alcotest.(check (float 1e-9)) "unit edge cost" 1.0 inst.Instance.edge_cost.(0)

let test_instance_rejects_bad_demand () =
  let g = fixture () in
  Alcotest.check_raises "endpoint range"
    (Invalid_argument "Instance.make: demand endpoint out of range") (fun () ->
      ignore (make_inst g [ demand 0 99 ] (Failure.none g)))

let test_instance_feasible_when_repaired () =
  let g = fixture () in
  Alcotest.(check bool) "feasible" true
    (Instance.feasible_when_repaired
       (make_inst g [ demand ~amount:20.0 0 5 ] (Failure.complete g)));
  Alcotest.(check bool) "infeasible" false
    (Instance.feasible_when_repaired
       (make_inst g [ demand ~amount:21.0 0 5 ] (Failure.complete g)))

let test_solution_counters () =
  let g = fixture () in
  let inst = make_inst g [ demand 0 5 ] (Failure.complete g) in
  let sol =
    { Instance.repaired_vertices = [ 0; 1 ];
      repaired_edges = [ 0 ];
      routing = Routing.empty }
  in
  Alcotest.(check int) "v" 2 (Instance.vertex_repairs sol);
  Alcotest.(check int) "e" 1 (Instance.edge_repairs sol);
  Alcotest.(check int) "total" 3 (Instance.total_repairs sol);
  Alcotest.(check (float 1e-9)) "cost" 3.0 (Instance.repair_cost inst sol)

let test_repair_cost_heterogeneous () =
  let g = fixture () in
  let vertex_cost = Array.make (Graph.nv g) 2.5 in
  let edge_cost = Array.make (Graph.ne g) 4.0 in
  let inst =
    make_inst ~vertex_cost ~edge_cost g [ demand 0 5 ] (Failure.complete g)
  in
  let sol =
    { Instance.repaired_vertices = [ 3 ];
      repaired_edges = [ 2 ];
      routing = Routing.empty }
  in
  Alcotest.(check (float 1e-9)) "cost" 6.5 (Instance.repair_cost inst sol)

let test_repaired_predicates () =
  let g = fixture () in
  let inst = make_inst g [ demand 0 5 ] (Failure.complete g) in
  let sol =
    { Instance.repaired_vertices = [ 0; 1 ];
      repaired_edges = [ 0 ];
      routing = Routing.empty }
  in
  Alcotest.(check bool) "v repaired" true (Instance.repaired_vertex_ok inst sol 0);
  Alcotest.(check bool) "v broken" false (Instance.repaired_vertex_ok inst sol 2);
  (* edge 0 = (0,1): both endpoints repaired -> usable *)
  Alcotest.(check bool) "edge usable" true (Instance.repaired_edge_ok inst sol 0);
  (* edge 1 = (1,2): endpoint 2 still broken *)
  Alcotest.(check bool) "edge endpoint broken" false
    (Instance.repaired_edge_ok inst sol 1)

let test_valid_rejects_unbroken_repairs () =
  let g = fixture () in
  let inst = make_inst g [ demand 0 5 ] (Failure.none g) in
  let sol =
    { Instance.repaired_vertices = [ 0 ];
      repaired_edges = [];
      routing = Routing.empty }
  in
  Alcotest.(check bool) "invalid" false (Instance.valid inst sol)

let test_valid_rejects_duplicates () =
  let g = fixture () in
  let inst = make_inst g [ demand 0 5 ] (Failure.complete g) in
  let sol =
    { Instance.repaired_vertices = [ 0; 0 ];
      repaired_edges = [];
      routing = Routing.empty }
  in
  Alcotest.(check bool) "invalid" false (Instance.valid inst sol)

let test_repair_all () =
  let g = fixture () in
  let inst = make_inst g [ demand 0 5 ] (Failure.complete g) in
  let sol = Instance.repair_all inst in
  Alcotest.(check int) "everything" (Graph.nv g + Graph.ne g)
    (Instance.total_repairs sol);
  Alcotest.(check bool) "valid" true (Instance.valid inst sol)

(* ---- Centrality ---- *)

let unit_len _ = 1.0

let test_centrality_path_interior () =
  let g = path_graph 4 in
  let c =
    Centrality.compute ~length:unit_len ~cap:(Graph.capacity g) g
      [ demand 0 3 ]
  in
  (* Interior vertices 1,2 receive the full demand weight; endpoints 0. *)
  Alcotest.(check (float 1e-9)) "interior 1" 5.0 c.Centrality.score.(1);
  Alcotest.(check (float 1e-9)) "interior 2" 5.0 c.Centrality.score.(2);
  Alcotest.(check (float 1e-9)) "endpoint" 0.0 c.Centrality.score.(0)

let test_centrality_splits_over_paths () =
  (* Two equal disjoint 2-hop paths between 0 and 3: each midpoint gets
     half the demand. *)
  let g =
    Graph.make ~n:4 ~edges:[ (0, 1, 10.0); (1, 3, 10.0); (0, 2, 10.0); (2, 3, 10.0) ] ()
  in
  let c =
    Centrality.compute ~length:unit_len ~cap:(Graph.capacity g) g
      [ demand ~amount:8.0 0 3 ]
  in
  (* The bundle needs only the first path (cap 10 >= 8), so one midpoint
     takes everything - the other is zero.  Exactly the paper's P*
     semantics: stop once accumulated capacity covers the demand. *)
  let s1 = c.Centrality.score.(1) and s2 = c.Centrality.score.(2) in
  Alcotest.(check (float 1e-9)) "total weight" 8.0 (s1 +. s2);
  Alcotest.(check bool) "single path" true (s1 = 0.0 || s2 = 0.0)

let test_centrality_uses_both_paths_when_needed () =
  (* Demand 15 > single path capacity 10: both midpoints contribute,
     proportionally to path capacity. *)
  let g =
    Graph.make ~n:4 ~edges:[ (0, 1, 10.0); (1, 3, 10.0); (0, 2, 10.0); (2, 3, 10.0) ] ()
  in
  let c =
    Centrality.compute ~length:unit_len ~cap:(Graph.capacity g) g
      [ demand ~amount:15.0 0 3 ]
  in
  Alcotest.(check (float 1e-9)) "midpoint 1" 7.5 c.Centrality.score.(1);
  Alcotest.(check (float 1e-9)) "midpoint 2" 7.5 c.Centrality.score.(2)

let test_centrality_best_and_contributors () =
  let g = path_graph 4 in
  let d = demand 0 3 in
  let c =
    Centrality.compute ~length:unit_len ~cap:(Graph.capacity g) g [ d ]
  in
  (match Centrality.best c with
  | Some v -> Alcotest.(check bool) "interior" true (v = 1 || v = 2)
  | None -> Alcotest.fail "expected a best vertex");
  let contribs = Centrality.contributors g c 1 in
  Alcotest.(check int) "one contributor" 1 (List.length contribs);
  let cap = Centrality.paths_capacity_through g (List.hd contribs) 1 in
  Alcotest.(check (float 1e-9)) "capacity through" 10.0 cap

let test_centrality_no_demands () =
  let g = path_graph 4 in
  let c = Centrality.compute ~length:unit_len ~cap:(Graph.capacity g) g [] in
  Alcotest.(check bool) "no best" true (Centrality.best c = None)

let test_centrality_length_metric_bias () =
  (* Two 2-hop paths; make one much longer: only the short one is used. *)
  let g =
    Graph.make ~n:4 ~edges:[ (0, 1, 10.0); (1, 3, 10.0); (0, 2, 10.0); (2, 3, 10.0) ] ()
  in
  let length e = if e < 2 then 1.0 else 100.0 in
  let c =
    Centrality.compute ~length ~cap:(Graph.capacity g) g [ demand 0 3 ]
  in
  Alcotest.(check bool) "short path favoured" true
    (c.Centrality.score.(1) > 0.0 && c.Centrality.score.(2) = 0.0)

(* Exactness of the incremental cache (DESIGN §11): after any sequence
   of worsen/improve metric changes reported through Cache, the cached
   computation must agree bit-for-bit with a from-scratch one — scores
   and per-demand bundles alike. *)
let same_centrality a b =
  a.Centrality.score = b.Centrality.score
  && List.length a.Centrality.contributions
     = List.length b.Centrality.contributions
  && List.for_all2
       (fun ca cb ->
         ca.Centrality.demand = cb.Centrality.demand
         && ca.Centrality.bundle.Paths.paths = cb.Centrality.bundle.Paths.paths
         && ca.Centrality.bundle.Paths.covered
            = cb.Centrality.bundle.Paths.covered)
       a.Centrality.contributions b.Centrality.contributions

let centrality_incremental_prop =
  QCheck.Test.make
    ~name:"incremental centrality = from-scratch under random op sequences"
    ~count:200 QCheck.small_int (fun seed ->
      let rng = Rng.create (seed + 17) in
      let g =
        Netrec_graph.Generate.erdos_renyi ~rng ~n:18 ~p:0.25 ~capacity:10.0
      in
      let ne = Graph.ne g and nv = Graph.nv g in
      if ne = 0 then true
      else begin
        let pick_pair () =
          let src = Rng.int rng nv in
          let dst = (src + 1 + Rng.int rng (nv - 1)) mod nv in
          Commodity.make ~src ~dst
            ~amount:(1.0 +. float_of_int (Rng.int rng 4))
        in
        let demands = List.init 3 (fun _ -> pick_pair ()) in
        let length = Array.make ne 1.0 in
        let resid = Array.make ne 10.0 in
        let cache = Centrality.Cache.create () in
        let agree () =
          let inc =
            Centrality.compute ~cache ~length:(Array.get length)
              ~cap:(Array.get resid) g demands
          in
          let scratch =
            Centrality.compute ~length:(Array.get length)
              ~cap:(Array.get resid) g demands
          in
          same_centrality inc scratch
        in
        let ok = ref (agree ()) in
        for _ = 1 to 12 do
          if !ok then begin
            let e = Rng.int rng ne in
            if Rng.int rng 4 = 0 then begin
              (* improve: an element gets cheaper again, like a repair *)
              length.(e) <- 1.0;
              resid.(e) <- 10.0;
              Centrality.Cache.note_improved cache
            end
            else begin
              (* worsen: a committed prune consumes residual capacity *)
              length.(e) <- length.(e) +. 1.0;
              resid.(e) <- resid.(e) /. 2.0;
              Centrality.Cache.note_worse cache e
            end;
            ok := agree ()
          end
        done;
        !ok
      end)

let isp_cache_bit_identical_prop =
  QCheck.Test.make
    ~name:"isp solution identical with incremental centrality on/off"
    ~count:12 QCheck.small_int (fun seed ->
      let rng = Rng.create (seed + 31) in
      let g =
        Netrec_graph.Generate.erdos_renyi ~rng ~n:12 ~p:0.3 ~capacity:10.0
      in
      if not (Traverse.is_connected g) then true
      else begin
        let n = Graph.nv g in
        let demands =
          [ Commodity.make ~src:0 ~dst:(n - 1) ~amount:3.0;
            Commodity.make ~src:1 ~dst:(n - 2) ~amount:2.0 ]
        in
        let inst = make_inst g demands (Failure.complete g) in
        if not (Instance.feasible_when_repaired inst) then true
        else begin
          let agree config =
            let on, _ = Isp.solve ~config inst in
            let off, _ =
              Isp.solve
                ~config:{ config with Isp.incremental_centrality = false }
                inst
            in
            compare on off = 0
          in
          agree Isp.default_config
          && agree { Isp.default_config with Isp.length_mode = Isp.Hop }
        end
      end)

(* ---- Bubble ---- *)

let test_bubble_whole_graph_single_demand () =
  let g = fixture () in
  let d = demand 0 5 in
  match Bubble.find g ~demands:[ d ] d with
  | Some members -> Alcotest.(check int) "everything" 6 (List.length members)
  | None -> Alcotest.fail "expected a bubble"

let test_bubble_blocked_by_other_endpoints () =
  (* Demand (0,2) on the path 0-1-2-3-4: vertex 2.. use fixture:
     demands (0,5) and (2,3): bubble for (0,5) must exclude 2 and 3,
     and interior vertices adjacent to them. *)
  let g = fixture () in
  let d1 = demand 0 5 and d2 = demand 2 3 in
  match Bubble.find g ~demands:[ d1; d2 ] d1 with
  | Some members ->
    Alcotest.(check bool) "no other endpoint" true
      ((not (List.mem 2 members)) && not (List.mem 3 members))
  | None -> () (* a fully blocked bubble is also acceptable *)

let test_bubble_prune_routes_demand () =
  let g = fixture () in
  let d = demand ~amount:15.0 0 5 in
  match
    Bubble.prune
      ~working_vertex:(fun _ -> true)
      ~working_edge:(fun _ -> true)
      ~cap:(Graph.capacity g) g ~demands:[ d ] d
  with
  | Some pr ->
    Alcotest.(check (float 1e-6)) "full amount" 15.0 pr.Bubble.amount;
    let total =
      List.fold_left (fun acc (_, x) -> acc +. x) 0.0 pr.Bubble.paths
    in
    Alcotest.(check (float 1e-6)) "paths sum" 15.0 total
  | None -> Alcotest.fail "expected a prune"

let test_bubble_prune_capped_by_flow () =
  let g = path_graph ~capacity:3.0 3 in
  let d = demand ~amount:10.0 0 2 in
  match
    Bubble.prune
      ~working_vertex:(fun _ -> true)
      ~working_edge:(fun _ -> true)
      ~cap:(Graph.capacity g) g ~demands:[ d ] d
  with
  | Some pr -> Alcotest.(check (float 1e-6)) "capped" 3.0 pr.Bubble.amount
  | None -> Alcotest.fail "expected a prune"

let test_bubble_prune_respects_broken () =
  let g = path_graph 3 in
  let d = demand 0 2 in
  match
    Bubble.prune
      ~working_vertex:(fun v -> v <> 1)
      ~working_edge:(fun _ -> true)
      ~cap:(Graph.capacity g) g ~demands:[ d ] d
  with
  | Some _ -> Alcotest.fail "broken relay must block pruning"
  | None -> ()

(* Theorem 3's guarantee: pruning a demand over a bubble never destroys
   the routability of the rest of the demand.  Exercised on random
   instances with the exact LP as the referee. *)
let prune_preserves_routability_prop =
  QCheck.Test.make ~name:"prune preserves routability (Thm 3)" ~count:20
    QCheck.small_int (fun seed ->
      let rng = Rng.create (seed + 31) in
      let g =
        Netrec_graph.Generate.erdos_renyi ~rng ~n:10 ~p:0.4 ~capacity:6.0
      in
      let n = Graph.nv g in
      if n < 4 || not (Traverse.is_connected g) then true
      else begin
        let demands =
          [ Commodity.make ~src:0 ~dst:(n - 1) ~amount:3.0;
            Commodity.make ~src:1 ~dst:(n - 2) ~amount:3.0 ]
        in
        let cap = Graph.capacity g in
        match Netrec_flow.Mcf_lp.feasible ~cap g demands with
        | Netrec_flow.Mcf_lp.Routable _ -> (
          let h = List.hd demands in
          match
            Bubble.prune
              ~working_vertex:(fun _ -> true)
              ~working_edge:(fun _ -> true)
              ~cap g ~demands h
          with
          | None -> true
          | Some pr ->
            (* Apply the prune: consume capacities, shrink the demand. *)
            let resid = Array.init (Graph.ne g) cap in
            List.iter
              (fun (p, amount) ->
                List.iter
                  (fun e -> resid.(e) <- Float.max 0.0 (resid.(e) -. amount))
                  p)
              pr.Bubble.paths;
            let demands' =
              { h with
                Commodity.amount = h.Commodity.amount -. pr.Bubble.amount }
              :: List.tl demands
            in
            let demands' =
              List.filter (fun d -> d.Commodity.amount > 1e-9) demands'
            in
            (match
               Netrec_flow.Mcf_lp.feasible ~cap:(fun e -> resid.(e)) g demands'
             with
            | Netrec_flow.Mcf_lp.Routable _ -> true
            | Netrec_flow.Mcf_lp.Unroutable -> false
            | _ -> true))
        | _ -> true (* only routable instances are in Thm 3's scope *)
      end)

(* ---- ISP ---- *)

let isp inst = Isp.solve inst

let check_no_loss inst sol =
  Alcotest.(check (float 1e-6)) "no demand loss" 1.0
    (Evaluate.satisfied_fraction inst sol)

let test_isp_nothing_broken () =
  let g = fixture () in
  let inst = make_inst g [ demand 0 5 ] (Failure.none g) in
  let sol, stats = isp inst in
  Alcotest.(check int) "no repairs" 0 (Instance.total_repairs sol);
  Alcotest.(check int) "no splits" 0 stats.Isp.splits;
  check_no_loss inst sol

let test_isp_no_demands () =
  let g = fixture () in
  let inst = make_inst g [] (Failure.complete g) in
  let sol, _ = isp inst in
  Alcotest.(check int) "no repairs" 0 (Instance.total_repairs sol)

let test_isp_path_complete_destruction () =
  let g = path_graph 4 in
  let inst = make_inst g [ demand 0 3 ] (Failure.complete g) in
  let sol, _ = isp inst in
  (* Must repair the whole unique path: 4 vertices + 3 edges. *)
  Alcotest.(check int) "vertices" 4 (Instance.vertex_repairs sol);
  Alcotest.(check int) "edges" 3 (Instance.edge_repairs sol);
  Alcotest.(check bool) "valid" true (Instance.valid inst sol);
  check_no_loss inst sol

let test_isp_only_needed_branch () =
  (* A star: center 0, leaves 1..4; demand only 1->2.  ISP must not touch
     leaves 3 and 4. *)
  let g =
    Graph.make ~n:5
      ~edges:[ (0, 1, 10.0); (0, 2, 10.0); (0, 3, 10.0); (0, 4, 10.0) ] ()
  in
  let inst = make_inst g [ demand 1 2 ] (Failure.complete g) in
  let sol, _ = isp inst in
  Alcotest.(check bool) "leaf 3 untouched" false
    (List.mem 3 sol.Instance.repaired_vertices);
  Alcotest.(check bool) "leaf 4 untouched" false
    (List.mem 4 sol.Instance.repaired_vertices);
  Alcotest.(check int) "3 vertices" 3 (Instance.vertex_repairs sol);
  Alcotest.(check int) "2 edges" 2 (Instance.edge_repairs sol);
  check_no_loss inst sol

let test_isp_shares_repairs_between_demands () =
  (* Two demands whose shortest paths can share the middle of a ladder:
     ISP's split/centrality mechanism should reuse repaired middle
     edges rather than opening two disjoint corridors. *)
  let g = Netrec_graph.Generate.grid ~width:4 ~height:3 ~capacity:20.0 in
  let demands = [ demand ~amount:5.0 0 3; demand ~amount:5.0 8 11 ] in
  let inst = make_inst g demands (Failure.complete g) in
  let sol, _ = isp inst in
  check_no_loss inst sol;
  (* Disjoint corridors would need at least 8+6=14... sharing the middle
     row lowers the bill; just assert a sane bound and validity. *)
  Alcotest.(check bool) "valid" true (Instance.valid inst sol);
  Alcotest.(check bool) "not repairing everything" true
    (Instance.total_repairs sol < Graph.nv g + Graph.ne g)

let test_isp_respects_capacity_conflicts () =
  (* Two 10-unit demands, capacity 10 per edge: they cannot share one
     path; ISP must open enough capacity and still lose nothing. *)
  let g = Netrec_graph.Generate.grid ~width:4 ~height:2 ~capacity:10.0 in
  let demands = [ demand ~amount:10.0 0 3; demand ~amount:10.0 4 7 ] in
  let inst = make_inst g demands (Failure.complete g) in
  let sol, _ = isp inst in
  check_no_loss inst sol;
  Alcotest.(check bool) "valid" true (Instance.valid inst sol)

let test_isp_partial_failure () =
  let g = fixture () in
  (* Break only the top path; bottom path can carry the demand. *)
  let e01 = Option.get (Graph.find_edge g 0 1) in
  let failure = Failure.of_lists g ~vertices:[] ~edges:[ e01 ] in
  let inst = make_inst g [ demand ~amount:10.0 0 5 ] failure in
  let sol, _ = isp inst in
  Alcotest.(check int) "no repairs needed" 0 (Instance.total_repairs sol);
  check_no_loss inst sol

let test_isp_broken_endpoint_repaired () =
  let g = path_graph 3 in
  let failure = Failure.of_lists g ~vertices:[ 0 ] ~edges:[] in
  let inst = make_inst g [ demand 0 2 ] failure in
  let sol, stats = isp inst in
  Alcotest.(check (list int)) "endpoint repaired" [ 0 ]
    sol.Instance.repaired_vertices;
  Alcotest.(check int) "counted" 1 stats.Isp.endpoint_repairs;
  check_no_loss inst sol

let test_isp_routing_is_valid () =
  let g = fixture () in
  let inst = make_inst g [ demand ~amount:12.0 0 5 ] (Failure.complete g) in
  let sol, _ = isp inst in
  Alcotest.(check bool) "routing present" true (sol.Instance.routing <> []);
  Alcotest.(check bool) "valid incl. routing" true (Instance.valid inst sol);
  Alcotest.(check (float 1e-6)) "routes everything" 12.0
    (Routing.total_routed sol.Instance.routing)

let test_isp_deterministic () =
  let g = fixture () in
  let inst = make_inst g [ demand 0 5; demand 2 3 ] (Failure.complete g) in
  let s1, _ = isp inst and s2, _ = isp inst in
  Alcotest.(check (list int)) "same vertices" s1.Instance.repaired_vertices
    s2.Instance.repaired_vertices;
  Alcotest.(check (list int)) "same edges" s1.Instance.repaired_edges
    s2.Instance.repaired_edges

let test_isp_heterogeneous_costs_prefer_cheap () =
  (* Two disjoint 2-hop routes; make one route's relay expensive: ISP's
     dynamic length metric must route around it. *)
  let g =
    Graph.make ~n:4 ~edges:[ (0, 1, 10.0); (1, 3, 10.0); (0, 2, 10.0); (2, 3, 10.0) ] ()
  in
  let vertex_cost = [| 1.0; 50.0; 1.0; 1.0 |] in
  let inst =
    make_inst ~vertex_cost g [ demand 0 3 ] (Failure.complete g)
  in
  let sol, _ = isp inst in
  Alcotest.(check bool) "avoids expensive relay" false
    (List.mem 1 sol.Instance.repaired_vertices);
  check_no_loss inst sol

(* ---- ISP regression scenarios on canonical shapes ---- *)

let test_isp_theta_graph () =
  (* Theta graph: three internally disjoint 0-4 routes of lengths 2, 3
     and 3 (vertices 0,1,2,3,4,5; routes 0-1-4, 0-2-3-4, 0-5-...-4).
     Demand below one route's capacity: ISP must open exactly the short
     route (3 vertices + 2 edges). *)
  let g =
    Graph.make ~n:6
      ~edges:
        [ (0, 1, 10.0); (1, 4, 10.0);      (* short route *)
          (0, 2, 10.0); (2, 3, 10.0); (3, 4, 10.0);  (* long route A *)
          (0, 5, 10.0); (5, 4, 10.0) ]     (* alternative 2-hop route *)
      ()
  in
  let inst = make_inst g [ demand ~amount:8.0 0 4 ] (Failure.complete g) in
  let sol, _ = isp inst in
  Alcotest.(check int) "3 vertices" 3 (Instance.vertex_repairs sol);
  Alcotest.(check int) "2 edges" 2 (Instance.edge_repairs sol);
  check_no_loss inst sol

let test_isp_theta_needs_two_routes () =
  (* Demand 15 > 10: one 2-hop route is not enough; ISP must open two of
     the three routes (the two 2-hop ones are cheapest: 4 vertices
     + 4 edges beyond endpoints... count: vertices {0,1,5,4} edges 4). *)
  let g =
    Graph.make ~n:6
      ~edges:
        [ (0, 1, 10.0); (1, 4, 10.0);
          (0, 2, 10.0); (2, 3, 10.0); (3, 4, 10.0);
          (0, 5, 10.0); (5, 4, 10.0) ]
      ()
  in
  let inst = make_inst g [ demand ~amount:15.0 0 4 ] (Failure.complete g) in
  let sol, _ = isp inst in
  check_no_loss inst sol;
  Alcotest.(check int) "both 2-hop routes" 8 (Instance.total_repairs sol)

let test_isp_ladder_cross_demands () =
  (* 2xN ladder with two demands along opposite rails: sharing rungs is
     never needed; ISP must not repair every rung. *)
  let g = Netrec_graph.Generate.grid ~width:5 ~height:2 ~capacity:10.0 in
  let demands = [ demand ~amount:5.0 0 4; demand ~amount:5.0 5 9 ] in
  let inst = make_inst g demands (Failure.complete g) in
  let sol, _ = isp inst in
  check_no_loss inst sol;
  (* Full repair would be 10 + 13 = 23; the two rails alone are 18. *)
  Alcotest.(check bool) "rails only (or close)" true
    (Instance.total_repairs sol <= 19)

let isp_no_loss_prop =
  QCheck.Test.make ~name:"isp never loses demand on feasible instances"
    ~count:15 QCheck.small_int (fun seed ->
      let rng = Rng.create (seed + 1) in
      let g =
        Netrec_graph.Generate.erdos_renyi ~rng ~n:14 ~p:0.3 ~capacity:10.0
      in
      if not (Traverse.is_connected g) then true
      else begin
        let n = Graph.nv g in
        let demands =
          [ Commodity.make ~src:0 ~dst:(n - 1) ~amount:4.0;
            Commodity.make ~src:1 ~dst:(n - 2) ~amount:4.0 ]
        in
        let inst = make_inst g demands (Failure.complete g) in
        if not (Instance.feasible_when_repaired inst) then true
        else begin
          let sol, _ = Isp.solve inst in
          Evaluate.satisfied_fraction inst sol >= 1.0 -. 1e-6
          && Instance.valid inst sol
        end
      end)

let isp_no_worse_than_all_prop =
  QCheck.Test.make ~name:"isp repairs at most everything" ~count:15
    QCheck.small_int (fun seed ->
      let rng = Rng.create (seed + 100) in
      let g =
        Netrec_graph.Generate.erdos_renyi ~rng ~n:12 ~p:0.35 ~capacity:10.0
      in
      if not (Traverse.is_connected g) then true
      else begin
        let demands = [ Commodity.make ~src:0 ~dst:(Graph.nv g - 1) ~amount:3.0 ] in
        let inst = make_inst g demands (Failure.complete g) in
        let sol, _ = Isp.solve inst in
        Instance.total_repairs sol <= Graph.nv g + Graph.ne g
      end)

(* ---- candidate links (footnote 1) ---- *)

let test_candidate_links_extend_instance () =
  let g = Graph.make ~n:3 ~edges:[ (0, 1, 10.0) ] () in
  let inst = make_inst g [ demand ~amount:5.0 0 1 ] (Failure.none g) in
  let inst', ids = Instance.with_candidate_links inst [ (1, 2, 8.0, 3.5) ] in
  Alcotest.(check int) "one candidate" 1 (List.length ids);
  let e = List.hd ids in
  Alcotest.(check bool) "candidate broken" true
    (Failure.edge_broken inst'.Instance.failure e);
  Alcotest.(check (float 1e-9)) "install cost" 3.5 inst'.Instance.edge_cost.(e);
  Alcotest.(check int) "graph extended" 2 (Graph.ne inst'.Instance.graph);
  (* original untouched *)
  Alcotest.(check int) "original" 1 (Graph.ne inst.Instance.graph)

let test_candidate_links_enable_recovery () =
  (* 0-1 works but vertex 2 is only reachable via a candidate link: ISP
     must "build" it. *)
  let g = Graph.make ~n:3 ~edges:[ (0, 1, 10.0) ] () in
  let inst = make_inst g [ demand ~amount:5.0 0 2 ] (Failure.none g) in
  let inst', ids = Instance.with_candidate_links inst [ (1, 2, 8.0, 2.0) ] in
  let sol, _ = Isp.solve inst' in
  Alcotest.(check (list int)) "builds the candidate" ids
    sol.Instance.repaired_edges;
  check_no_loss inst' sol

let test_candidate_links_choose_cheaper () =
  (* Repairing the broken old link costs 10; building the new one 1. *)
  let g = Graph.make ~n:2 ~edges:[ (0, 1, 10.0) ] () in
  let edge_cost = [| 10.0 |] in
  let inst =
    make_inst ~edge_cost g
      [ demand ~amount:5.0 0 1 ]
      (Failure.of_lists g ~vertices:[] ~edges:[ 0 ])
  in
  let inst', ids = Instance.with_candidate_links inst [ (0, 1, 8.0, 1.0) ] in
  let sol, _ = Isp.solve inst' in
  Alcotest.(check (list int)) "builds new, skips old" ids
    sol.Instance.repaired_edges

(* ---- Schedule ---- *)

let test_schedule_orders_all_repairs () =
  let g = path_graph 4 in
  let inst = make_inst g [ demand 0 3 ] (Failure.complete g) in
  let sol, _ = Isp.solve inst in
  let sched = Schedule.greedy inst sol in
  Alcotest.(check int) "one step per repair"
    (Instance.total_repairs sol)
    (List.length sched.Schedule.steps);
  (* Monotone non-decreasing satisfaction, ending at 1. *)
  let sats = List.map (fun s -> s.Schedule.satisfied_after) sched.Schedule.steps in
  let rec monotone = function
    | a :: (b :: _ as rest) -> a <= b +. 1e-9 && monotone rest
    | _ -> true
  in
  Alcotest.(check bool) "monotone" true (monotone sats);
  Alcotest.(check (float 1e-6)) "fully restored" 1.0
    (List.nth sats (List.length sats - 1))

let test_schedule_greedy_beats_or_ties_arbitrary () =
  let g = Netrec_graph.Generate.grid ~width:4 ~height:3 ~capacity:20.0 in
  let inst =
    make_inst g [ demand ~amount:5.0 0 3; demand ~amount:5.0 8 11 ]
      (Failure.complete g)
  in
  let sol, _ = Isp.solve inst in
  let greedy = Schedule.greedy inst sol in
  let arbitrary =
    Schedule.in_order inst
      (List.map (fun v -> `Vertex v) sol.Instance.repaired_vertices
      @ List.map (fun e -> `Edge e) sol.Instance.repaired_edges)
  in
  Alcotest.(check bool) "greedy >= arbitrary" true
    (greedy.Schedule.auc >= arbitrary.Schedule.auc -. 1e-9)

let test_schedule_empty_solution () =
  (* An empty schedule's curve is flat at the unrepaired instance's
     satisfaction: on a fully broken instance that is 0, not a perfect
     1.0.  (The old behavior scored empty solutions as perfect.) *)
  let g = path_graph 3 in
  let broken = make_inst g [ demand 0 2 ] (Failure.complete g) in
  let sched = Schedule.greedy broken Instance.empty_solution in
  Alcotest.(check int) "no steps" 0 (List.length sched.Schedule.steps);
  Alcotest.(check (float 1e-9)) "auc is baseline" 0.0 sched.Schedule.auc;
  Alcotest.(check (float 1e-9)) "baseline matches" 0.0
    (Schedule.baseline_satisfaction broken);
  (* On an undamaged instance the baseline — and hence the empty
     schedule's auc — really is 1. *)
  let intact = make_inst g [ demand 0 2 ] (Failure.none g) in
  let sched = Schedule.greedy intact Instance.empty_solution in
  Alcotest.(check (float 1e-9)) "intact baseline" 1.0 sched.Schedule.auc

(* Table-driven malformed repair orders: each case pins the structured
   [order_error] reported before any state array is indexed (matching
   the serializer's malformed-input table below). *)
let order_error_t =
  Alcotest.testable
    (fun fmt e -> Format.pp_print_string fmt (Schedule.order_error_to_string e))
    ( = )

let schedule_malformed_cases =
  [ ("vertex out of range", [ `Vertex 99 ],
     Schedule.Out_of_range (`Vertex 99));
    ("negative vertex id", [ `Vertex (-1) ],
     Schedule.Out_of_range (`Vertex (-1)));
    ("edge out of range", [ `Edge 99 ], Schedule.Out_of_range (`Edge 99));
    ("negative edge id", [ `Edge (-2) ], Schedule.Out_of_range (`Edge (-2)));
    ("vertex not broken", [ `Vertex 0 ], Schedule.Not_broken (`Vertex 0));
    ("edge not broken", [ `Edge 1 ], Schedule.Not_broken (`Edge 1));
    ("duplicate vertex", [ `Vertex 1; `Vertex 1 ],
     Schedule.Duplicate (`Vertex 1));
    ("duplicate edge", [ `Edge 0; `Edge 0 ], Schedule.Duplicate (`Edge 0));
    ("first offender wins", [ `Vertex 1; `Edge 9 ],
     Schedule.Out_of_range (`Edge 9)) ]

let test_schedule_malformed_table () =
  (* path 0-1-2: vertex 1 and edge 0 broken; vertex 0 / edge 1 intact. *)
  let g = path_graph 3 in
  let inst =
    make_inst g [ demand 0 2 ] (Failure.of_lists g ~vertices:[ 1 ] ~edges:[ 0 ])
  in
  List.iter
    (fun (label, order, want) ->
      (match Schedule.validate_order inst order with
      | Ok () -> Alcotest.failf "%s: validated successfully" label
      | Error e -> Alcotest.check order_error_t (label ^ ": error") want e);
      (match Schedule.in_order_result inst order with
      | Ok _ -> Alcotest.failf "%s: in_order_result accepted" label
      | Error e ->
        Alcotest.check order_error_t (label ^ ": in_order_result") want e);
      let want_exn =
        Invalid_argument
          ("Schedule.in_order: " ^ Schedule.order_error_to_string want)
      in
      Alcotest.check_raises (label ^ ": in_order raises") want_exn (fun () ->
          ignore (Schedule.in_order inst order)))
    schedule_malformed_cases

let test_schedule_greedy_rejects_malformed_solution () =
  let g = path_graph 3 in
  let inst = make_inst g [ demand 0 2 ] (Failure.none g) in
  let sol =
    { Instance.repaired_vertices = [ 42 ]; repaired_edges = []; routing = Routing.empty }
  in
  Alcotest.check_raises "greedy validates"
    (Invalid_argument
       ("Schedule.greedy: "
       ^ Schedule.order_error_to_string (Schedule.Out_of_range (`Vertex 42))))
    (fun () -> ignore (Schedule.greedy inst sol))

let test_schedule_valid_orders_accepted () =
  let g = path_graph 3 in
  let inst =
    make_inst g [ demand 0 2 ] (Failure.of_lists g ~vertices:[ 1 ] ~edges:[ 0 ])
  in
  Alcotest.(check bool) "valid order passes" true
    (Schedule.validate_order inst [ `Vertex 1; `Edge 0 ] = Ok ())

let test_schedule_perf_sanity () =
  (* ~200-element solution: the greedy scheduler must stay comfortably
     sub-quadratic-in-practice (baseline hoisted out of the scoring
     loop, boolean-array membership in completion_element).  The
     generous bound only guards against the removed O(k^2 * route)
     blowup, not machine speed. *)
  let n = 100 in
  let g = path_graph n in
  let inst = make_inst g [ demand 0 (n - 1) ] (Failure.complete g) in
  let sol = Instance.repair_all inst in
  Alcotest.(check int) "about 200 elements" (2 * n - 1)
    (Instance.total_repairs sol);
  let t0 = Unix.gettimeofday () in
  let sched = Schedule.greedy inst sol in
  let dt = Unix.gettimeofday () -. t0 in
  Alcotest.(check int) "all scheduled" (2 * n - 1)
    (List.length sched.Schedule.steps);
  let last =
    List.nth sched.Schedule.steps (List.length sched.Schedule.steps - 1)
  in
  Alcotest.(check (float 1e-6)) "fully restored" 1.0
    last.Schedule.satisfied_after;
  if dt > 30.0 then
    Alcotest.failf "greedy on %d elements took %.1fs (expected seconds)"
      (2 * n - 1) dt

(* ---- ISP length-mode ablation ---- *)

let test_isp_hop_mode_still_sound () =
  let g = fixture () in
  let inst = make_inst g [ demand ~amount:10.0 0 5 ] (Failure.complete g) in
  let config = { Isp.default_config with Isp.length_mode = Isp.Hop } in
  let sol, _ = Isp.solve ~config inst in
  check_no_loss inst sol;
  Alcotest.(check bool) "valid" true (Instance.valid inst sol)

(* ---- Render ---- *)

let test_render_instance_dot () =
  let g = fixture () in
  let inst = make_inst g [ demand 0 5 ] (Failure.complete g) in
  let dot = Render.instance_dot inst in
  Alcotest.(check bool) "graph header" true
    (String.length dot > 16 && String.sub dot 0 14 = "graph recovery");
  (* every vertex and edge appears *)
  Alcotest.(check bool) "has demand overlay" true
    (String.length dot > 0
    &&
    let contains needle =
      let n = String.length needle and h = String.length dot in
      let rec scan i = i + n <= h && (String.sub dot i n = needle || scan (i + 1)) in
      scan 0
    in
    contains "style=dashed")

let test_render_solution_marks_repairs () =
  let g = path_graph 3 in
  let inst = make_inst g [ demand 0 2 ] (Failure.complete g) in
  let sol, _ = Isp.solve inst in
  let dot = Render.solution_dot inst sol in
  let contains needle =
    let n = String.length needle and h = String.length dot in
    let rec scan i = i + n <= h && (String.sub dot i n = needle || scan (i + 1)) in
    scan 0
  in
  Alcotest.(check bool) "repaired color present" true (contains "#7bc77b")

(* ---- Serialize ---- *)

let test_serialize_roundtrip () =
  let g = fixture () in
  let vertex_cost = Array.init (Graph.nv g) (fun i -> 1.0 +. float_of_int i) in
  let inst =
    make_inst ~vertex_cost g
      [ demand ~amount:7.5 0 5; demand ~amount:2.5 2 3 ]
      (Failure.of_lists g ~vertices:[ 1; 4 ] ~edges:[ 0; 6 ])
  in
  let inst' = Serialize.of_string (Serialize.to_string inst) in
  Alcotest.(check int) "nv" (Graph.nv g) (Graph.nv inst'.Instance.graph);
  Alcotest.(check int) "ne" (Graph.ne g) (Graph.ne inst'.Instance.graph);
  Alcotest.(check int) "demands" 2 (List.length inst'.Instance.demands);
  Alcotest.(check (list int)) "broken v" [ 1; 4 ]
    (Failure.broken_vertex_list inst'.Instance.failure);
  Alcotest.(check (list int)) "broken e" [ 0; 6 ]
    (Failure.broken_edge_list inst'.Instance.failure);
  Alcotest.(check (float 1e-9)) "vertex cost" 5.0
    inst'.Instance.vertex_cost.(4);
  (* demand order and values preserved *)
  let d = List.hd inst'.Instance.demands in
  Alcotest.(check (float 1e-9)) "amount" 7.5 d.Commodity.amount

let test_serialize_preserves_names_coords () =
  let bc = Netrec_topo.Bell_canada.graph () in
  let inst = make_inst bc [ demand 0 40 ] (Failure.complete bc) in
  let inst' = Serialize.of_string (Serialize.to_string inst) in
  Alcotest.(check string) "name" (Graph.name bc 1)
    (Graph.name inst'.Instance.graph 1);
  Alcotest.(check bool) "coords kept" true (Graph.has_coords inst'.Instance.graph)

let test_serialize_rejects_garbage () =
  Alcotest.(check bool) "raises Parse_error" true
    (try
       ignore (Serialize.of_string "[nonsense]\n1 2 3\n");
       false
     with Serialize.Parse_error _ -> true)

(* Table-driven malformed inputs: each case pins the 1-based line the
   structured error must point at and a substring of its message.
   Section-wide arity mismatches blame the section header; file-level
   problems use line 0 (see serialize.mli). *)
let malformed_cases =
  [ ( "empty input",
      "",
      0, "no [graph]" );
    ( "content before any section",
      "0 1 5\n[graph]\n0 1 5\n",
      1, "before any section" );
    ( "unknown section",
      "[graph]\n0 1 5\n[nonsense]\n1 2 3\n",
      3, "unknown section" );
    ( "truncated edge line",
      "[graph]\n0 1 5\n1 2\n",
      3, "3 fields" );
    ( "extra edge field",
      "[graph]\n0 1 5 9 9\n",
      2, "3 fields" );
    ( "non-integer vertex id",
      "[graph]\nzero 1 5\n",
      2, "vertex id" );
    ( "negative vertex id",
      "[graph]\n-1 1 5\n",
      2, "negative vertex id" );
    ( "negative capacity",
      "[graph]\n0 1 -5\n",
      2, "negative capacity" );
    ( "bad capacity",
      "[graph]\n0 1 lots\n",
      2, "capacity" );
    ( "truncated demand line",
      "[graph]\n0 1 5\n[demands]\n0\n",
      4, "3 fields" );
    ( "negative demand amount",
      "[graph]\n0 1 5\n[demands]\n0 1 -3\n",
      4, "negative demand amount" );
    ( "demand endpoint out of range",
      "[graph]\n0 1 5\n[demands]\n0 7 3\n",
      4, "out of range" );
    ( "broken vertex out of range",
      "[graph]\n0 1 5\n[broken_vertices]\n9\n",
      4, "out of range" );
    ( "broken edge out of range",
      "[graph]\n0 1 5\n[broken_edges]\n3\n",
      4, "out of range" );
    ( "non-integer broken edge",
      "[graph]\n0 1 5\n[broken_edges]\nfirst\n",
      4, "edge id" );
    ( "names arity mismatch",
      "[graph]\n0 1 5\n[names]\nonly-one\n",
      3, "arity mismatch" );
    ( "vertex costs arity mismatch",
      "[graph]\n0 1 5\n[vertex_costs]\n1.0\n1.0\n1.0\n",
      3, "arity mismatch" );
    ( "bad edge cost",
      "[graph]\n0 1 5\n[edge_costs]\ncheap\n",
      4, "edge cost" ) ]

let test_serialize_malformed_table () =
  let contains hay needle =
    let n = String.length needle and h = String.length hay in
    let rec scan i = i + n <= h && (String.sub hay i n = needle || scan (i + 1)) in
    scan 0
  in
  List.iter
    (fun (label, text, want_line, want_msg) ->
      match Serialize.of_string_result text with
      | Ok _ -> Alcotest.failf "%s: parsed successfully" label
      | Error { Serialize.line; msg } ->
        Alcotest.(check int) (label ^ ": line") want_line line;
        if not (contains msg want_msg) then
          Alcotest.failf "%s: message %S lacks %S" label msg want_msg)
    malformed_cases

let test_serialize_result_ok () =
  let g = fixture () in
  let inst = make_inst g [ demand 0 5 ] (Failure.complete g) in
  match Serialize.of_string_result (Serialize.to_string inst) with
  | Ok inst' ->
    Alcotest.(check int) "nv" (Graph.nv g) (Graph.nv inst'.Instance.graph)
  | Error { Serialize.line; msg } ->
    Alcotest.failf "round-trip rejected (line %d: %s)" line msg

(* Round-trip property: on 100 seeded random instances and solutions
   (including empty demand sets and zero-capacity edges),
   [of_string_result] inverts [to_string] exactly — witnessed by
   re-rendering the parsed value and comparing strings, which pins ids,
   ordering and the %.12g float rendering all at once. *)
let random_instance rng =
  let n = 2 + Rng.int rng 7 in
  let ne = 1 + Rng.int rng (2 * n) in
  let edges =
    List.init ne (fun _ ->
        let u = Rng.int rng n in
        let v = (u + 1 + Rng.int rng (n - 1)) mod n in
        (* zero-capacity edges are legal and must survive the trip *)
        let cap = if Rng.bernoulli rng 0.2 then 0.0 else Rng.float rng 20.0 in
        (u, v, cap))
  in
  let g = Graph.make ~n ~edges () in
  let demands =
    List.init (Rng.int rng 3) (fun _ ->
        let s = Rng.int rng n in
        let t = (s + 1 + Rng.int rng (n - 1)) mod n in
        demand ~amount:(0.5 +. Rng.float rng 10.0) s t)
  in
  let pick p count = List.filter (fun _ -> Rng.bernoulli rng p) (List.init count Fun.id) in
  let failure =
    Failure.of_lists g ~vertices:(pick 0.4 n) ~edges:(pick 0.4 (Graph.ne g))
  in
  make_inst g demands failure

let random_solution rng inst =
  let failure = inst.Instance.failure in
  let keep l = List.filter (fun _ -> Rng.bernoulli rng 0.6) l in
  let routing =
    List.map
      (fun d ->
        { Routing.demand = d;
          paths =
            List.init (Rng.int rng 3) (fun _ ->
                ( List.init (Rng.int rng 4) (fun _ ->
                      Rng.int rng (Graph.ne inst.Instance.graph)),
                  Rng.float rng 5.0 )) })
      inst.Instance.demands
  in
  { Instance.repaired_vertices = keep (Failure.broken_vertex_list failure);
    repaired_edges = keep (Failure.broken_edge_list failure);
    routing }

let test_serialize_roundtrip_property () =
  for seed = 1 to 100 do
    let rng = Rng.create seed in
    let inst = random_instance rng in
    let text = Serialize.to_string inst in
    (match Serialize.of_string_result text with
    | Error { Serialize.line; msg } ->
      Alcotest.failf "seed %d: instance rejected (line %d: %s)" seed line msg
    | Ok inst' ->
      Alcotest.(check string)
        (Printf.sprintf "seed %d: instance identity" seed)
        text
        (Serialize.to_string inst'));
    let sol = random_solution rng inst in
    let cost =
      if Rng.bool rng then Some (Instance.repair_cost inst sol) else None
    in
    let text = Serialize.solution_to_string ?cost sol in
    match Serialize.solution_of_string_result text with
    | Error { Serialize.line; msg } ->
      Alcotest.failf "seed %d: solution rejected (line %d: %s)" seed line msg
    | Ok (sol', cost') ->
      Alcotest.(check string)
        (Printf.sprintf "seed %d: solution identity" seed)
        text
        (Serialize.solution_to_string ?cost:cost' sol');
      Alcotest.(check bool)
        (Printf.sprintf "seed %d: cost preserved" seed)
        true (cost = cost')
  done

let test_serialize_solutions_agree () =
  (* Solving the round-tripped instance gives the same repair count. *)
  let g = fixture () in
  let inst = make_inst g [ demand ~amount:10.0 0 5 ] (Failure.complete g) in
  let inst' = Serialize.of_string (Serialize.to_string inst) in
  let s1, _ = Isp.solve inst and s2, _ = Isp.solve inst' in
  Alcotest.(check int) "same total" (Instance.total_repairs s1)
    (Instance.total_repairs s2)

(* ---- Evaluate ---- *)

let test_evaluate_empty_solution_loss () =
  let g = path_graph 3 in
  let inst = make_inst g [ demand 0 2 ] (Failure.complete g) in
  let f = Evaluate.satisfied_fraction inst Instance.empty_solution in
  Alcotest.(check (float 1e-9)) "nothing works" 0.0 f

let test_evaluate_repair_all_restores () =
  let g = path_graph 3 in
  let inst = make_inst g [ demand 0 2 ] (Failure.complete g) in
  let f = Evaluate.satisfied_fraction inst (Instance.repair_all inst) in
  Alcotest.(check (float 1e-9)) "full" 1.0 f

let test_evaluate_partial_capacity () =
  let g = path_graph ~capacity:3.0 3 in
  let inst = make_inst g [ demand ~amount:6.0 0 2 ] (Failure.none g) in
  let r = Evaluate.assess inst Instance.empty_solution in
  Alcotest.(check (float 1e-6)) "half" 0.5 r.Evaluate.satisfied_fraction

(* Regression: validity is a single precondition on the solution's own
   routing.  An invalid routing (here: loaded paths over broken,
   unrepaired elements) must never beat the oracle's recomputation, even
   when it claims to route more. *)
let test_evaluate_invalid_routing_never_wins () =
  let g = path_graph 3 in
  let inst = make_inst g [ demand ~amount:5.0 0 2 ] (Failure.complete g) in
  let routing =
    [ { Routing.demand = List.hd inst.Instance.demands;
        paths = [ ([ 0; 1 ], 5.0) ] } ]
  in
  let sol = { Instance.empty_solution with Instance.routing } in
  let r = Evaluate.assess inst sol in
  Alcotest.(check (float 1e-9)) "nothing served" 0.0
    r.Evaluate.satisfied_fraction;
  Alcotest.(check bool) "phantom routing dropped" true
    (r.Evaluate.routing != routing)

let test_evaluate_prefers_own_complete_routing () =
  let g = path_graph 3 in
  let inst = make_inst g [ demand ~amount:5.0 0 2 ] (Failure.none g) in
  let routing =
    [ { Routing.demand = List.hd inst.Instance.demands;
        paths = [ ([ 0; 1 ], 5.0) ] } ]
  in
  let sol = { Instance.empty_solution with Instance.routing } in
  let r = Evaluate.assess inst sol in
  Alcotest.(check bool) "kept own routing" true (r.Evaluate.routing == routing)

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  Alcotest.run "netrec_core"
    [ ( "instance",
        [ tc "defaults" test_instance_defaults;
          tc "rejects bad demand" test_instance_rejects_bad_demand;
          tc "feasible when repaired" test_instance_feasible_when_repaired;
          tc "solution counters" test_solution_counters;
          tc "heterogeneous costs" test_repair_cost_heterogeneous;
          tc "repaired predicates" test_repaired_predicates;
          tc "valid rejects unbroken" test_valid_rejects_unbroken_repairs;
          tc "valid rejects duplicates" test_valid_rejects_duplicates;
          tc "repair all" test_repair_all ] );
      ( "centrality",
        [ tc "path interior" test_centrality_path_interior;
          tc "single covering path" test_centrality_splits_over_paths;
          tc "both paths when needed" test_centrality_uses_both_paths_when_needed;
          tc "best and contributors" test_centrality_best_and_contributors;
          tc "no demands" test_centrality_no_demands;
          tc "length metric bias" test_centrality_length_metric_bias;
          QCheck_alcotest.to_alcotest centrality_incremental_prop;
          QCheck_alcotest.to_alcotest isp_cache_bit_identical_prop ] );
      ( "bubble",
        [ tc "whole graph" test_bubble_whole_graph_single_demand;
          tc "blocked by endpoints" test_bubble_blocked_by_other_endpoints;
          tc "prune routes demand" test_bubble_prune_routes_demand;
          tc "prune capped by flow" test_bubble_prune_capped_by_flow;
          tc "prune respects broken" test_bubble_prune_respects_broken;
          QCheck_alcotest.to_alcotest prune_preserves_routability_prop ] );
      ( "isp",
        [ tc "nothing broken" test_isp_nothing_broken;
          tc "no demands" test_isp_no_demands;
          tc "path complete destruction" test_isp_path_complete_destruction;
          tc "only needed branch" test_isp_only_needed_branch;
          tc "shares repairs" test_isp_shares_repairs_between_demands;
          tc "capacity conflicts" test_isp_respects_capacity_conflicts;
          tc "partial failure" test_isp_partial_failure;
          tc "broken endpoint" test_isp_broken_endpoint_repaired;
          tc "routing valid" test_isp_routing_is_valid;
          tc "deterministic" test_isp_deterministic;
          tc "heterogeneous costs" test_isp_heterogeneous_costs_prefer_cheap;
          tc "hop mode sound" test_isp_hop_mode_still_sound;
          tc "theta graph" test_isp_theta_graph;
          tc "theta two routes" test_isp_theta_needs_two_routes;
          tc "ladder cross demands" test_isp_ladder_cross_demands;
          QCheck_alcotest.to_alcotest isp_no_loss_prop;
          QCheck_alcotest.to_alcotest isp_no_worse_than_all_prop ] );
      ( "candidate_links",
        [ tc "extend instance" test_candidate_links_extend_instance;
          tc "enable recovery" test_candidate_links_enable_recovery;
          tc "choose cheaper" test_candidate_links_choose_cheaper ] );
      ( "schedule",
        [ tc "orders all repairs" test_schedule_orders_all_repairs;
          tc "greedy beats arbitrary" test_schedule_greedy_beats_or_ties_arbitrary;
          tc "empty solution" test_schedule_empty_solution;
          tc "malformed order table" test_schedule_malformed_table;
          tc "greedy rejects malformed solution"
            test_schedule_greedy_rejects_malformed_solution;
          tc "valid orders accepted" test_schedule_valid_orders_accepted;
          tc "perf sanity ~200 elements" test_schedule_perf_sanity ] );
      ( "render",
        [ tc "instance dot" test_render_instance_dot;
          tc "solution marks repairs" test_render_solution_marks_repairs ] );
      ( "serialize",
        [ tc "roundtrip" test_serialize_roundtrip;
          tc "names and coords" test_serialize_preserves_names_coords;
          tc "rejects garbage" test_serialize_rejects_garbage;
          tc "malformed table" test_serialize_malformed_table;
          tc "result ok" test_serialize_result_ok;
          tc "roundtrip property" test_serialize_roundtrip_property;
          tc "solutions agree" test_serialize_solutions_agree ] );
      ( "evaluate",
        [ tc "empty solution loss" test_evaluate_empty_solution_loss;
          tc "repair all restores" test_evaluate_repair_all_restores;
          tc "partial capacity" test_evaluate_partial_capacity;
          tc "invalid routing never wins" test_evaluate_invalid_routing_never_wins;
          tc "prefers own routing" test_evaluate_prefers_own_complete_routing ] ) ]
