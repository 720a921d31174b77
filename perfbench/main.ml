(* Same-machine benchmark of the recovery planners.

     main.exe --workload opt-bell|large-scale|serve-bell --seed N
              --seconds S --trace 0|1

   Each workload drives one public entry point over a fixed corpus of
   instances built before timing: [Opt.solve] on Bell Canada Gaussian
   disasters (opt-bell), [Shard.solve] on CAIDA-825 and a 20k-vertex
   scale-free disaster (large-scale), and the in-process daemon
   ([Server.start] + [Client.query]) on Bell Canada (serve-bell).  The
   seed orders the corpus (and, for the daemon, places the repeated
   queries); see README.md for why the corpus itself is fixed.

   The timed region covers only the public calls.  Every output is
   checked outside it and each violation counts as a failed operation.
   The last line of standard output is one JSON object: end-to-end
   metrics with [--trace 0], per-layer metrics from a traced run with
   [--trace 1]. *)

module Rng = Netrec_util.Rng
module Obs = Netrec_obs.Obs
module Instance = Netrec_core.Instance
module Isp = Netrec_core.Isp
module Evaluate = Netrec_core.Evaluate
module Failure = Netrec_disrupt.Failure
module Models = Netrec_disrupt.Models
module Common = Netrec_experiments.Common
module Fig9_xl = Netrec_experiments.Fig9_xl
module Opt = Netrec_heuristics.Opt
module Srt = Netrec_heuristics.Srt
module Postpass = Netrec_heuristics.Postpass
module Check = Netrec_check.Check
module Shard = Netrec_shard.Shard
module Server = Netrec_serve.Server
module Client = Netrec_serve.Client
module P = Netrec_serve.Protocol

let now = Unix.gettimeofday

(* ---- command line ---- *)

type args = { workload : string; seed : int; seconds : float; trace : bool }

let usage () =
  prerr_endline
    "usage: main.exe --workload opt-bell|large-scale|serve-bell --seed N \
     --seconds S --trace 0|1";
  exit 2

let parse_args () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0
  and trace = ref false in
  let rec go = function
    | "--workload" :: v :: rest -> workload := v; go rest
    | "--seed" :: v :: rest -> seed := int_of_string v; go rest
    | "--seconds" :: v :: rest -> seconds := float_of_string v; go rest
    | "--trace" :: v :: rest -> trace := v = "1"; go rest
    | [] -> ()
    | _ -> usage ()
  in
  (try go (List.tl (Array.to_list Sys.argv)) with Failure _ -> usage ());
  { workload = !workload; seed = !seed; seconds = !seconds; trace = !trace }

(* ---- small statistics ---- *)

let median = Netrec_util.Stats.median
let mean = Netrec_util.Stats.mean

(* Nearest-rank percentile. *)
let percentile q xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0.0
  else a.(max 0 (min (n - 1) (int_of_float (Float.ceil (q *. float n)) - 1)))

(* The seed's order of a corpus. *)
let seeded_order ~seed n =
  let a = Array.init n Fun.id in
  Rng.shuffle (Rng.create seed) a;
  a

(* ---- host-speed calibration ---- *)

(* On a shared host, identical single-threaded work measured up to 1.9x
   apart from one run to the next, with CPU time equal to wall time:
   the host, not the program, sets the pace.  A fixed kernel that lives
   in this file (so no change to the program can speed it up) samples
   the host's speed in the benchmark's own process: a whole kernel
   before and after every sequential call or daemon pass, and one
   eighth of it every [slice_every_s] inside a sequential call.  A kernel
   in a child process tracked the solves worse than no kernel at all.
   Every reported time is in reference units: the measured time times
   [reference_kernel_ms] over the kernel time the samples around and
   inside the call give.  Raw wall-clock figures are printed on the
   line above the result. *)
let reference_kernel_ms = 40.0

(* One eighth of the kernel: dense float products, hashing and
   sorting, the mix of the solvers' own inner loops and their
   allocation. *)
let slice () =
  let n = 200 in
  let a = Array.init n (fun i -> Array.init n (fun j -> float ((i * j) mod 7))) in
  let x = Array.make n 1.0 in
  for _ = 1 to 2 do
    let y =
      Array.map
        (fun row -> Array.fold_left ( +. ) 0.0 (Array.map2 ( *. ) row x))
        a
    in
    let total = Array.fold_left ( +. ) 0.0 y in
    Array.iteri (fun i v -> x.(i) <- v /. total) y
  done;
  let k = ref 0 in
  for round = 1 to 2 do
    let h = Hashtbl.create 16 in
    for i = 0 to 4_000 do
      Hashtbl.replace h ((i * 7919 * round) mod 50_021) [ float i ]
    done;
    let l = List.init 7_000 (fun i -> (i * 31 * round) mod 1000) in
    k := !k + Hashtbl.length h + List.length (List.sort compare l)
  done;
  !k

let slices_per_kernel = 8

let all_kernel_ms = ref []

(* One kernel sample (about 40 ms on an unloaded 2 GHz core), in ms. *)
let calibrate () =
  Gc.compact ();
  let t0 = now () in
  for _ = 1 to slices_per_kernel do
    ignore (Sys.opaque_identity (slice ()))
  done;
  let ms = 1000.0 *. (now () -. t0) in
  all_kernel_ms := ms :: !all_kernel_ms;
  ms

(* Samples taken inside a long sequential call: while [with_slices]
   runs, SIGALRM runs one slice every [slice_every_s] and records its
   milliseconds and allocation here.  The caller takes both out of the
   call's.  Before each slice the handler settles the collector work the
   solver has left (a minor collection and a major slice, on the
   solver's time), so the slice's time is its own work and not the
   solver's collector debt: a solver that allocates more does not slow
   the slices and shrink its own calibrated time. *)
let slice_every_s = 0.25
let in_call_ms = ref []
let in_call_words = ref (0.0, 0.0)  (* minor, major *)
let sampling = ref false

let () =
  Sys.set_signal Sys.sigalrm
    (Sys.Signal_handle
       (fun _ ->
         if !sampling then begin
           Gc.minor ();
           ignore (Gc.major_slice 0);
           let g0 = Obs.gc_snapshot () in
           let t0 = now () in
           ignore (Sys.opaque_identity (slice ()));
           in_call_ms := (1000.0 *. (now () -. t0)) :: !in_call_ms;
           let d = Obs.gc_delta g0 (Obs.gc_snapshot ()) in
           let minor, major = !in_call_words in
           in_call_words :=
             (minor +. d.Obs.minor_words, major +. d.Obs.major_words)
         end))

let with_slices f =
  let timer v = { Unix.it_interval = v; it_value = v } in
  in_call_ms := [];
  in_call_words := (0.0, 0.0);
  sampling := true;
  ignore (Unix.setitimer Unix.ITIMER_REAL (timer slice_every_s));
  Fun.protect f ~finally:(fun () ->
      ignore (Unix.setitimer Unix.ITIMER_REAL (timer 0.0));
      sampling := false)

(* Reference units per measured unit at a kernel time of [ms]. *)
let scale ms = reference_kernel_ms /. ms

(* ---- run bookkeeping ---- *)

type run = {
  concurrent : bool;  (* plans overlap in time (the daemon) *)
  samples : float list array;  (* ms per corpus entry, one per pass *)
  mutable pass_s : float list;  (* timed seconds of each pass *)
  mutable raw_pass_s : float list;  (* the same in wall-clock seconds *)
  mutable attempted : int;
  mutable failed : int;
  mutable minor_words : float;  (* Gc.quick_stat deltas around the calls *)
  mutable major_words : float;
}

let new_run ~concurrent n =
  { concurrent; samples = Array.make n []; pass_s = []; raw_pass_s = []; attempted = 0;
    failed = 0; minor_words = 0.0; major_words = 0.0 }

let record run i seconds =
  run.samples.(i) <- (1000.0 *. seconds) :: run.samples.(i)

(* Each entry's median over the passes: a burst of host noise during
   one pass moves no entry's figure. *)
let latencies run =
  Array.to_list run.samples
  |> List.filter (fun l -> l <> [])
  |> List.map median

let plans run = Array.fold_left (fun k l -> k + List.length l) 0 run.samples

(* Plans per second of timed wall clock.  Sequential plans: the corpus
   size over the summed per-entry medians; concurrent plans: the corpus
   size over the median pass. *)
let plans_per_s run =
  let n = float (List.length (latencies run)) in
  if run.concurrent then n /. median run.pass_s
  else n /. (List.fold_left ( +. ) 0.0 (latencies run) /. 1000.0)

let fail run what =
  run.failed <- run.failed + 1;
  prerr_endline ("check failed: " ^ what)

(* Time one public call under a benchmark-side span, adding its
   allocation to the run when tracing.  The in-call slices' time and
   allocation are not the call's. *)
let call ?(slices = false) run ~trace name f =
  let f = if slices then fun () -> with_slices f else f in
  let less_slices dt =
    if slices then dt -. (List.fold_left ( +. ) 0.0 !in_call_ms /. 1000.0)
    else dt
  in
  if trace then begin
    let before = Obs.gc_snapshot () in
    let t0 = now () in
    let r = Obs.span name f in
    let dt = less_slices (now () -. t0) in
    let d = Obs.gc_delta before (Obs.gc_snapshot ()) in
    let minor, major = if slices then !in_call_words else (0.0, 0.0) in
    run.minor_words <- run.minor_words +. d.Obs.minor_words -. minor;
    run.major_words <- run.major_words +. d.Obs.major_words -. major;
    (r, dt)
  end
  else
    let t0 = now () in
    let r = f () in
    (r, less_slices (now () -. t0))

(* Whole passes over the corpus until [seconds] is used: a further pass
   starts only when the time used so far leaves room for one more, so
   every pass sees the same inputs and a run never stops mid-corpus.
   [pass] returns its timed seconds.  [warm_up] runs first, untimed, on
   the same run, so its checks count.  A traced run then makes one
   untraced pass, for the tracing overhead, resets the collector and
   traces the timed passes. *)
let measure a ~concurrent n ~warm_up (pass : run -> trace:bool -> float * float) =
  let run = new_run ~concurrent n in
  warm_up run;
  (* [pass] records its samples and returns its wall-clock and
     reference-unit seconds. *)
  let timed_pass run ~trace =
    Gc.compact ();
    let raw, t = pass run ~trace in
    run.raw_pass_s <- raw :: run.raw_pass_s;
    run.pass_s <- t :: run.pass_s
  in
  let untraced_pps =
    if a.trace then begin
      let r = new_run ~concurrent n in
      timed_pass r ~trace:false;
      run.attempted <- run.attempted + r.attempted;
      run.failed <- run.failed + r.failed;
      Obs.reset ();
      Obs.set_enabled true;
      Some (plans_per_s r)
    end
    else None
  in
  let rec go used =
    timed_pass run ~trace:a.trace;
    let used = used +. List.hd run.raw_pass_s in
    if used +. (used /. float (List.length run.pass_s)) <= a.seconds then
      go used
  in
  go 0.0;
  Obs.set_enabled false;
  (run, untraced_pps)

(* Median of [k] set-ups in reference units; the last one's value is
   kept. *)
let setup_median k f =
  let rec go i times last =
    if i = k then (median times, Option.get last)
    else begin
      let before = calibrate () in
      Gc.compact ();
      let t0 = now () in
      let v = f () in
      let dt = now () -. t0 in
      let s = scale ((before +. calibrate ()) /. 2.0) in
      go (i + 1) ((dt *. s) :: times) (Some v)
    end
  in
  go 0 [] None

let peak_heap_mb () =
  float ((Gc.stat ()).Gc.top_heap_words * (Sys.word_size / 8))
  /. (1024.0 *. 1024.0)

(* Solutions are compared on their sorted repair lists. *)
let repairs (s : Instance.solution) =
  ( List.sort compare s.Instance.repaired_vertices,
    List.sort compare s.Instance.repaired_edges )

let certify_into run ~trace ~label ?reported_cost inst sol =
  let cert, _ =
    call run ~trace "bench.certify" (fun () ->
        Check.certify ?reported_cost inst sol)
  in
  if not (Check.ok cert) then
    fail run (label ^ ": " ^ Check.certificate_to_string cert);
  cert

(* ---- output ---- *)

type metric = { name : string; value : float; unit : string }

let m name unit value = { name; value; unit }

let print_result ~correct ~attempted ~failed metrics =
  let num v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0" in
  let body =
    String.concat ", "
      (List.map
         (fun x ->
           Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" x.name
             (num x.value) x.unit)
         metrics)
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed body

(* Workload results shared by every workload's report. *)
type outcome = {
  run : run;
  setup_s : float;
  peak_mb : float;  (* see [direct] *)
  costs : float list;  (* per plan of one pass *)
  satisfied : float list;  (* per plan of one pass, in [0,1] *)
  extra : metric list;  (* workload-specific per-layer values *)
  untraced_pps : float option;  (* traced runs: one untraced pass *)
}

let end_to_end o =
  let r = o.run in
  [ m "setup_s" "s" o.setup_s;
    m "plans_per_s" "1/s" (plans_per_s r);
    m "plan_p50_ms" "ms" (percentile 0.5 (latencies r));
    m "plan_p90_ms" "ms" (percentile 0.9 (latencies r));
    m "plan_p99_ms" "ms" (percentile 0.99 (latencies r));
    m "repair_cost" "count" (mean o.costs);
    m "satisfied_pct" "%" (100.0 *. mean o.satisfied);
    m "peak_heap_mb" "MB" o.peak_mb ]

(* ---- per-layer metrics from the traced run ---- *)

(* Total seconds of every span whose innermost name is [leaf]. *)
let span_total leaf =
  List.fold_left
    (fun acc (s : Obs.span_stat) ->
      let name =
        match String.rindex_opt s.Obs.path '/' with
        | Some i -> String.sub s.Obs.path (i + 1) (String.length s.Obs.path - i - 1)
        | None -> s.Obs.path
      in
      if name = leaf then acc +. s.Obs.total_s else acc)
    0.0 (Obs.span_stats ())

let ctr = Obs.counter_value

let ratio_pct a b = if b = 0 then 0.0 else 100.0 *. float a /. float b

(* Names default to 0 when the workload does not reach the layer; a
   workload overrides the ones it measures its own way through
   [extra]. *)
let per_layer o =
  let r = o.run in
  let plans = float (plans r) in
  let per_plan x = x /. plans in
  let per_plan_i k = per_plan (float (ctr k)) in
  let ms leaf = per_plan (1000.0 *. span_total leaf) in
  let pivots = ctr "simplex.pivots" in
  let traced_pps = plans_per_s r in
  let base =
    [ m "lp.simplex_pivots" "count" (per_plan_i "simplex.pivots");
      m "lp.us_per_pivot" "us"
        (if pivots = 0 then 0.0
         else 1e6 *. span_total "opt.branch_and_bound" /. float pivots);
      m "lp.milp_nodes" "count" (per_plan_i "milp.nodes");
      m "lp.nodes_pruned_pct" "%"
        (ratio_pct (ctr "milp.nodes_pruned") (ctr "milp.nodes"));
      m "lp.cold_confirms" "count" (per_plan_i "simplex.cold_confirms");
      m "lp.cold_retries" "count" (per_plan_i "milp.cold_retries");
      m "lp.cuts_added_pct" "%"
        (ratio_pct (ctr "cuts.added") (ctr "cuts.separated"));
      m "lp.dse_resets" "count" (per_plan_i "simplex.dse_resets");
      m "lp.presolve_runs" "count" (per_plan_i "presolve.runs");
      m "heuristics.opt_bb_ms" "ms" (ms "opt.branch_and_bound");
      m "heuristics.opt_model_build_ms" "ms" (ms "opt.model_build");
      m "heuristics.opt_warm_start_ms" "ms" (ms "opt.warm_start");
      m "flow.mcf_solves" "count"
        (per_plan
           (float
              (ctr "mcf.feasible_solves" + ctr "mcf.max_scale_solves"
             + ctr "mcf.max_total_solves")));
      (* Every LP outside branch-and-bound is a flow-layer LP; counters
         cannot be split by span, so this is only measurable on
         workloads that run no MILP. *)
      m "flow.mcf_pivots" "count"
        (if ctr "milp.nodes" = 0 then per_plan_i "simplex.pivots" else 0.0);
      m "flow.oracle_ms" "ms" (ms "isp.oracle");
      m "core.isp_iterations" "count" (per_plan_i "isp.iterations");
      m "core.split_ms" "ms" (ms "isp.split_step");
      m "core.prune_ms" "ms" (ms "isp.prune_pass");
      m "core.centrality_hit_pct" "%"
        (ratio_pct (ctr "centrality.cache_hits")
           (ctr "centrality.cache_hits" + ctr "centrality.cache_misses"));
      m "graph.maxflow_calls" "count" (per_plan_i "maxflow.calls");
      m "graph.dijkstra_calls" "count" (per_plan_i "dijkstra.calls");
      m "graph.dijkstra_settled" "count" (per_plan_i "dijkstra.settled");
      m "shard.region_ms" "ms" (ms "shard.region");
      m "shard.subsolve_ms" "ms" (ms "shard.subsolve");
      m "shard.final_route_ms" "ms" (ms "shard.final_route");
      m "shard.delegated_pct" "%"
        (100.0 *. per_plan_i "isp.shard_delegated");
      m "check.certify_ms" "ms" (ms "bench.certify");
      m "gc.minor_words_per_plan" "words" (per_plan r.minor_words);
      m "gc.major_words_per_plan" "words" (per_plan r.major_words);
      m "trace.plans_per_s" "1/s" traced_pps;
      m "host.kernel_ms" "ms" (median !all_kernel_ms);
      m "trace.overhead_pct" "%"
        (match o.untraced_pps with
         | Some u -> 100.0 *. ((u /. traced_pps) -. 1.0)
         | None -> 0.0) ]
  in
  let names = List.map (fun x -> x.name) o.extra in
  List.filter (fun x -> not (List.mem x.name names)) base @ o.extra

(* Serve-layer and OPT-quality names every workload reports (0 where
   the workload does not reach them). *)
let zero_extra names = List.map (fun (n, u) -> m n u 0.0) names

let serve_names =
  [ ("serve.cache_hit_pct", "%"); ("serve.server_p50_ms", "ms");
    ("serve.overhead_p50_ms", "ms"); ("serve.queue_peak", "count");
    ("serve.errors", "count"); ("serve.shed_srt", "count") ]

let opt_names = [ ("opt.proved_pct", "%"); ("opt.gap_pct", "%") ]

(* ---- opt-bell: Opt.solve on Bell Canada Gaussian disasters ---- *)

let opt_node_limit = 40

let bell_gaussian g ~seed ~variance ~count =
  let rng = Rng.create seed in
  let demands = Common.feasible_demands ~rng ~count ~amount:10.0 g in
  let failure = Models.gaussian ~rng ~variance g in
  Instance.make ~graph:g ~demands ~failure ()

(* The pinned lp_gate scenario (seed 2, variance 70, 4 demands) plus a
   grid of variance x demand count, one fixed draw per cell and round.
   Kept unfiltered: no instance is chosen or dropped by solve time. *)
let opt_corpus () =
  let g = Netrec_topo.Bell_canada.graph () in
  let variances = [| 20.0; 30.0; 50.0; 70.0 |] and counts = [| 2; 3; 4 |] in
  let grid =
    List.init 16 (fun i ->
        bell_gaussian g ~seed:(101 + i)
          ~variance:variances.(i mod 4)
          ~count:counts.(i mod 3))
  in
  Array.of_list (bell_gaussian g ~seed:2 ~variance:70.0 ~count:4 :: grid)

(* One pass of a sequential workload in the seed's order: [solve]
   times one public call (under [call ~slices:true]), checks its output
   and returns the seconds.  Each call starts right after [Gc.compact],
   so an entry's time does not depend on what ran before it, and sits
   between two kernel samples; its host speed is the mean, per slice,
   of those two and of the slices taken during the call. *)
let direct_pass ~order solve run ~trace =
  let n = Array.length order in
  let raw = Array.make n 0.0 and k = Array.make (n + 1) 0.0
  and inside = Array.make n [] in
  Array.iteri
    (fun j i ->
      k.(j) <- calibrate ();
      Gc.compact ();
      run.attempted <- run.attempted + 1;
      raw.(j) <- solve run ~trace i;
      inside.(j) <- !in_call_ms)
    order;
  k.(n) <- calibrate ();
  let per_slice ms = ms /. float slices_per_kernel in
  let total = ref 0.0 in
  Array.iteri
    (fun j i ->
      let host = per_slice k.(j) :: per_slice k.(j + 1) :: inside.(j) in
      let kernel_ms = float slices_per_kernel *. mean host in
      let t = raw.(j) *. scale kernel_ms in
      record run i t;
      total := !total +. t)
    order;
  (Array.fold_left ( +. ) 0.0 raw, !total)

(* Every solve must reproduce the first result for its corpus entry,
   which comes from the untimed warm-up where there is one; the first
   results are the run's quality figures. *)
let reproduce run ~label first i r same =
  match first.(i) with
  | None -> first.(i) <- Some r
  | Some w ->
    if not (same w r) then
      fail run (label ^ ": result differs from the first solve")

(* Entries whose every solve raised have no result (and are already
   counted as failed). *)
let firsts first = List.filter_map Fun.id (Array.to_list first)

(* A sequential workload: the [warm] entries solved untimed, then timed
   passes in the seed's order.  Every output goes through [check].  The
   heap peak is read after the warm-up, which runs no kernel or slice:
   the collector never gives heap back, and the kernels and slices
   between and inside the timed calls move the peak by several MB with
   the seed's order. *)
let direct a ~warm corpus solve check =
  let n = Array.length corpus in
  let entry ~slices run ~trace i =
    match call ~slices run ~trace "bench.solve" (fun () -> solve corpus.(i)) with
    | r, dt -> check run ~trace i r; dt
    | exception e -> fail run (Printexc.to_string e); 0.0
  in
  let peak = ref 0.0 in
  let warm_up run =
    List.iter
      (fun i ->
        run.attempted <- run.attempted + 1;
        ignore (entry ~slices:false run ~trace:false i))
      warm;
    peak := peak_heap_mb ()
  in
  let order = seeded_order ~seed:a.seed n in
  let run, untraced_pps =
    measure a ~concurrent:false n ~warm_up
      (direct_pass ~order (entry ~slices:true))
  in
  (run, untraced_pps, !peak)

let opt_bell a =
  let setup_s, corpus = setup_median 3 opt_corpus in
  let n = Array.length corpus in
  (* The ISP + postpass warm start each OPT objective must not exceed,
     computed outside the timed region on first use. *)
  let warm_cost =
    Array.map
      (fun inst ->
        lazy
          (let isp, _ = Isp.solve inst in
           Instance.repair_cost inst (Postpass.prune inst isp)))
      corpus
  in
  let first = Array.make n None in
  let same (w : Opt.result) (r : Opt.result) =
    r.Opt.objective = w.Opt.objective && r.Opt.bound = w.Opt.bound
    && r.Opt.proved = w.Opt.proved
    && repairs r.Opt.solution = repairs w.Opt.solution
  in
  let check run ~trace i (r : Opt.result) =
    let label = Printf.sprintf "opt-bell[%d]" i in
    let cert =
      certify_into run ~trace ~label ~reported_cost:r.Opt.objective corpus.(i)
        r.Opt.solution
    in
    if r.Opt.bound > r.Opt.objective +. 1e-9 then
      fail run (label ^ ": bound above objective");
    if r.Opt.objective > Lazy.force warm_cost.(i) +. 1e-9 then
      fail run (label ^ ": objective above the ISP warm start");
    reproduce run ~label first i (r, cert.Check.own_satisfaction)
      (fun (w, _) (r, _) -> same w r)
  in
  (* Untimed warm-up: the whole corpus, so the heap peak covers every
     instance. *)
  let run, untraced_pps, peak_mb =
    direct a ~warm:(List.init n Fun.id) corpus
      (Opt.solve ~node_limit:opt_node_limit) check
  in
  let results = firsts first in
  let proved = List.length (List.filter (fun (r, _) -> r.Opt.proved) results) in
  let gap ((r : Opt.result), _) =
    if r.Opt.objective <= 0.0 then 0.0
    else (r.Opt.objective -. r.Opt.bound) /. r.Opt.objective
  in
  { run; setup_s; peak_mb; untraced_pps;
    costs = List.map (fun (r, _) -> r.Opt.objective) results;
    satisfied = List.map snd results;
    extra =
      [ m "opt.proved_pct" "%" (ratio_pct proved n);
        m "opt.gap_pct" "%" (100.0 *. mean (List.map gap results)) ]
      @ zero_extra serve_names }

(* ---- large-scale: Shard.solve on CAIDA-825 and a 20k xl disaster ---- *)

(* Three families, all fixed draws: complete destruction of CAIDA-825
   (the paper's Fig. 9), an unfiltered draw of CAIDA Gaussian disasters
   (draw 6 is the Garg-Koenemann oracle cliff, kept on purpose), and one
   20k-vertex scale-free Gaussian disaster on the sharded path. *)
let large_corpus () =
  let g = Netrec_topo.Caida.graph () in
  let complete =
    List.init 8 (fun i ->
        Common.complete_instance ~rng:(Rng.create (200 + i)) ~distinct:true
          ~count:4 ~amount:22.0 g)
  in
  let gaussian =
    List.init 8 (fun seed ->
        let rng = Rng.create seed in
        let demands =
          Common.feasible_demands ~rng ~distinct:true ~count:4 ~amount:22.0 g
        in
        let failure = Models.gaussian ~rng ~variance:0.02 g in
        Instance.make ~graph:g ~demands ~failure ())
  in
  let xl =
    Fig9_xl.scenario ~n:20_000 ~topo_seed:0 ~fail_seed:1 ~demand_seed:2 ()
  in
  Array.of_list ((xl :: complete) @ gaussian)

let large_scale a =
  let setup_s, corpus = setup_median 3 large_corpus in
  let first = Array.make (Array.length corpus) None in
  let check run ~trace i ((sol : Instance.solution), (st : Shard.stats)) =
    let label = Printf.sprintf "large-scale[%d]" i in
    let cert = st.Shard.certificate in
    if not (Check.ok cert) then
      fail run (label ^ ": " ^ Check.certificate_to_string cert);
    (* Re-certified from outside, which is also what check.certify_ms
       times (the solver's own certification has no span). *)
    ignore (certify_into run ~trace ~label corpus.(i) sol);
    reproduce run ~label first i
      (repairs sol, cert.Check.recomputed_cost, cert.Check.own_satisfaction)
      ( = )
  in
  (* Untimed warm-up: the xl instance, one complete and one Gaussian
     CAIDA instance (corpus positions 0, 1 and 9).  A run makes a single
     timed pass (the GK cliff alone fills most of it), so these three
     are the entries each run solves twice and compares. *)
  let run, untraced_pps, peak_mb =
    direct a ~warm:[ 0; 1; 9 ] corpus Shard.solve check
  in
  let results = firsts first in
  { run; setup_s; peak_mb; untraced_pps;
    costs = List.map (fun (_, c, _) -> c) results;
    satisfied = List.map (fun (_, _, s) -> s) results;
    extra = zero_extra opt_names @ zero_extra serve_names }

(* ---- serve-bell: the in-process daemon on Bell Canada ---- *)

(* Query mix per pass: distinct ISP disasters (cache misses that solve
   and write), repeats of some of them (cache hits that only read) and
   distinct SRT queries (almost pure wire, protocol and queue cost). *)
let serve_isp = 720
let serve_repeats = 200
let serve_srt = 80
let serve_clients = 2

let query_of_instance algorithm (inst : Instance.t) =
  { P.algorithm;
    deadline_s = None;
    no_cache = false;
    demands =
      List.map
        (fun (c : Netrec_flow.Commodity.t) ->
          (c.Netrec_flow.Commodity.src, c.Netrec_flow.Commodity.dst,
           c.Netrec_flow.Commodity.amount))
        inst.Instance.demands;
    broken_vertices = Failure.broken_vertex_list inst.Instance.failure;
    broken_edges = Failure.broken_edge_list inst.Instance.failure }

(* Distinct disasters (variance 10..150, 1..4 demands), then the fixed
   repeat sources. *)
let serve_corpus () =
  let g = Netrec_topo.Bell_canada.graph () in
  let draw k =
    let variance = 10.0 +. (20.0 *. float (k mod 8)) and count = 1 + (k mod 4) in
    bell_gaussian g ~seed:(1000 + k) ~variance ~count
  in
  let isp = Array.init serve_isp (fun k -> (P.Isp, draw k)) in
  let srt = Array.init serve_srt (fun k -> (P.Srt, draw (serve_isp + k))) in
  let rng = Rng.create 77 in
  let repeat_of = Array.init serve_repeats (fun _ -> Rng.int rng serve_isp) in
  (g, Array.append isp srt, repeat_of)

(* The seed's query stream: each distinct query at a seeded position,
   each repeat at least a twentieth of the stream after its source, so
   the source's plan is cached by the time the repeat is asked. *)
let serve_stream ~seed distinct repeat_of =
  let rng = Rng.create seed in
  let key = Array.map (fun _ -> Rng.float rng 0.95) distinct in
  let items =
    Array.to_list (Array.mapi (fun i _ -> (key.(i), i)) distinct)
    @ Array.to_list
        (Array.map
           (fun src -> (key.(src) +. 0.05 +. Rng.float rng 0.2, src))
           repeat_of)
  in
  Array.of_list (List.map snd (List.sort compare items))

let socket_path () =
  let dir = ".bench_build" in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  Filename.concat dir (Printf.sprintf "serve-%d.sock" (Unix.getpid ()))

let start_daemon g =
  let address = Server.Unix_socket (socket_path ()) in
  let cfg =
    { (Server.default_config address) with
      Server.jobs = 2;
      cache_cap = 4096;
      log = ignore }
  in
  let server = Server.start cfg g in
  (match Client.with_connection address Client.ping with
   | Ok () -> ()
   | Error e -> failwith ("daemon ping: " ^ Client.error_to_string e));
  (server, address)

let stop_daemon server =
  Server.stop server;
  Server.wait server

let serve_bell a =
  let setup_s, (g, distinct, repeat_of) =
    setup_median 3 (fun () ->
        let corpus = serve_corpus () in
        let g, _, _ = corpus in
        stop_daemon (fst (start_daemon g));
        corpus)
  in
  let stream = serve_stream ~seed:a.seed distinct repeat_of in
  let n = Array.length stream in
  let queries =
    Array.map (fun (alg, inst) -> query_of_instance alg inst) distinct
  in
  (* Untimed reference pass: the in-process solve of every distinct
     query, which each daemon reply must match, and its time. *)
  let reference =
    Array.map
      (fun (alg, inst) ->
        let t0 = now () in
        let sol =
          match alg with
          | P.Isp -> fst (Isp.solve inst)
          | _ -> Srt.solve inst
        in
        (sol, now () -. t0, Evaluate.satisfied_fraction inst sol))
      distinct
  in
  let check run ~trace k (r : (P.response, Client.error) result) =
    let i = stream.(k) in
    let label = Printf.sprintf "serve-bell[%d]" i in
    let inst = snd distinct.(i) in
    match r with
    | Ok (P.Ok_plan reply) ->
      let sol, _, _ = reference.(i) in
      if repairs reply.P.solution <> repairs sol then
        fail run (label ^ ": reply differs from the in-process solve");
      if not reply.P.complete then fail run (label ^ ": incomplete plan");
      ignore
        (certify_into run ~trace ~label ~reported_cost:reply.P.cost inst
           reply.P.solution);
      Some reply
    | Ok _ -> fail run (label ^ ": unexpected response"); None
    | Error e -> fail run (label ^ ": " ^ Client.error_to_string e); None
  in
  let hits = ref 0 and overheads = ref [] and server_ms = ref []
  and queue_peak = ref 0 and errors = ref 0 and shed = ref 0 in
  let pass run ~trace =
    let before = calibrate () in
    Gc.compact ();
    let gc0 = Obs.gc_snapshot () in
    let server, address =
      if trace then Obs.span "bench.server_start" (fun () -> start_daemon g)
      else start_daemon g
    in
    let conns =
      List.init serve_clients (fun _ ->
          match Client.connect address with
          | Ok c -> c
          | Error e -> failwith (Client.error_to_string e))
    in
    let next = Atomic.make 0 in
    let lat = Array.make n 0.0 and replies = Array.make n None in
    let client c =
      let rec loop () =
        let k = Atomic.fetch_and_add next 1 in
        if k < n then begin
          let q = queries.(stream.(k)) in
          let t0 = now () in
          let r = Client.query c q in
          lat.(k) <- 1000.0 *. (now () -. t0);
          replies.(k) <- Some r;
          loop ()
        end
      in
      loop ()
    in
    let t0 = now () in
    let threads = List.map (Thread.create client) conns in
    List.iter Thread.join threads;
    let wall = now () -. t0 in
    List.iter Client.close conns;
    let stats = Server.stats server in
    stop_daemon server;
    (* After the stop, so the kernel never runs beside the daemon's live
       heap and adds nothing to its peak. *)
    let s = scale ((before +. calibrate ()) /. 2.0) in
    if trace then begin
      let d = Obs.gc_delta gc0 (Obs.gc_snapshot ()) in
      run.minor_words <- run.minor_words +. d.Obs.minor_words;
      run.major_words <- run.major_words +. d.Obs.major_words;
      (* Client threads share the main domain's collector state, so
         their latencies enter it here, after they are joined. *)
      Array.iter (Obs.observe "bench.client_query_ms") lat
    end;
    let stat k = Option.value ~default:0 (List.assoc_opt k stats) in
    queue_peak := max !queue_peak (stat "serve.queue_peak");
    errors := !errors + stat "serve.errors";
    shed := !shed + stat "serve.shed_srt";
    Array.iteri
      (fun k r ->
        run.attempted <- run.attempted + 1;
        run.samples.(k) <- (lat.(k) *. s) :: run.samples.(k);
        match check run ~trace k (Option.get r) with
        | Some reply ->
          if reply.P.cached then incr hits
          else if fst distinct.(stream.(k)) = P.Isp then begin
            let _, direct_s, _ = reference.(stream.(k)) in
            overheads := (lat.(k) -. (1000.0 *. direct_s)) :: !overheads
          end;
          server_ms := (1000.0 *. reply.P.seconds) :: !server_ms
        | None -> ())
      replies;
    (wall, wall *. s)
  in
  (* Untimed daemon warm-up: the first queries of the stream. *)
  let warm_up _ =
    let server, address = start_daemon g in
    ignore
      (Client.with_connection address (fun c ->
           for k = 0 to 19 do
             ignore (Client.query c queries.(stream.(k)))
           done;
           Ok ()));
    stop_daemon server
  in
  let run, untraced_pps =
    measure a ~concurrent:true n ~warm_up (fun run ~trace ->
        if trace then begin
          (* Only the traced passes feed the serve-layer figures. *)
          hits := 0; overheads := []; server_ms := []
        end;
        pass run ~trace)
  in
  let answered = List.length !server_ms in
  let per_stream f = Array.to_list (Array.map (fun i -> f reference.(i)) stream) in
  { run; setup_s; peak_mb = peak_heap_mb (); untraced_pps;
    costs =
      Array.to_list
        (Array.map
           (fun i ->
             let inst = snd distinct.(i) and sol, _, _ = reference.(i) in
             Instance.repair_cost inst sol)
           stream);
    satisfied = per_stream (fun (_, _, s) -> s);
    extra =
      zero_extra opt_names
      @ [ m "serve.cache_hit_pct" "%" (ratio_pct !hits answered);
          m "serve.server_p50_ms" "ms" (percentile 0.5 !server_ms);
          m "serve.overhead_p50_ms" "ms" (percentile 0.5 !overheads);
          m "serve.queue_peak" "count" (float !queue_peak);
          m "serve.errors" "count" (float !errors);
          m "serve.shed_srt" "count" (float !shed) ] }

(* ---- main ---- *)

let () =
  let a = parse_args () in
  let workload =
    match a.workload with
    | "opt-bell" -> opt_bell
    | "large-scale" -> large_scale
    | "serve-bell" -> serve_bell
    | _ -> usage ()
  in
  let o = workload a in
  let r = o.run in
  Printf.printf
    "workload %s seed %d: %d plans; passes of %s wall s; calibration kernel \
     median %.3f ms (reference %.0f ms)\n"
    a.workload a.seed (plans r)
    (String.concat " + " (List.rev_map (Printf.sprintf "%.3f") r.raw_pass_s))
    (median !all_kernel_ms) reference_kernel_ms;
  Array.iteri
    (fun i l ->
      if l <> [] then
        Printf.eprintf "entry %d: %s ms\n" i
          (String.concat " " (List.rev_map (Printf.sprintf "%.2f") l)))
    (if r.concurrent then [||] else r.samples);
  print_result ~correct:(r.failed = 0) ~attempted:r.attempted ~failed:r.failed
    (if a.trace then per_layer o else end_to_end o)
