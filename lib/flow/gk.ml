module Num = Netrec_util.Num
module Obs = Netrec_obs.Obs

type result = { lambda : float; routing : Routing.t }

let all _ = true

(* The usable network of one call, evaluated once: a live-edge mask and
   a capacity snapshot, so the Dijkstra inner loop reads arrays instead
   of running the caller's predicate and capacity closures per
   relaxation. *)
type network = { live : bool array; capa : float array; live_count : int }

let network ~vertex_ok ~edge_ok ~cap g =
  let m = Graph.ne g in
  let live = Array.make m false and capa = Array.make m 0.0 in
  let live_count = ref 0 in
  for e = 0 to m - 1 do
    if edge_ok e then begin
      let c = cap e in
      if Num.positive ~eps:Num.cap_eps c then begin
        let u, v = Graph.endpoints g e in
        if vertex_ok u && vertex_ok v then begin
          live.(e) <- true;
          capa.(e) <- c;
          incr live_count
        end
      end
    end
  done;
  { live; capa; live_count = !live_count }

let check_eps eps =
  if not (eps > 0.0 && eps < 1.0 /. 3.0) then
    invalid_arg "Gk: eps must lie in (0, 1/3)"

(* Initial length scale delta = (m / (1 - eps))^(-1/eps).  For small eps
   on large graphs it underflows to 0, every length stays 0 and the
   phase loop never ends; reject that instead of hanging. *)
let delta ~eps mf =
  let d = (mf /. (1.0 -. eps)) ** (-1.0 /. eps) in
  if Float.classify_float d <> FP_normal then
    invalid_arg "Gk: initial length delta underflows; raise eps";
  d

(* Initial lengths delta / c_e on live edges, infinite elsewhere. *)
let initial_lengths net delta =
  Array.mapi (fun e c -> if net.live.(e) then delta /. c else infinity) net.capa

(* Uniform scaling factor that makes the accumulated (unscaled) flow fit:
   the worst load / capacity ratio over live edges, at least [floor]. *)
let congestion net ~floor paths =
  let load = Array.make (Array.length net.live) 0.0 in
  Array.iter
    (fun plist ->
      List.iter
        (fun (p, f) -> List.iter (fun e -> load.(e) <- load.(e) +. f) p)
        plist)
    paths;
  let c = ref floor in
  Array.iteri
    (fun e l ->
      if net.live.(e) && l > 0.0 then c := Float.max !c (l /. net.capa.(e)))
    load;
  !c

(* Scale a commodity's accumulated paths by 1/congestion and keep them,
   in routing order, until [target] is served. *)
let trim ~congestion ~target plist =
  let taken = ref 0.0 in
  List.filter_map
    (fun (p, f) ->
      let available = f /. congestion in
      let take = Float.min available (target -. !taken) in
      if Num.positive ~eps:Num.cap_eps take then begin
        taken := !taken +. take;
        Some (p, take)
      end
      else None)
    (List.rev plist)

let live_demands demands =
  List.filter
    (fun d -> Num.positive ~eps:Num.flow_eps d.Commodity.amount)
    demands

(* Fleischer-style max-sum multicommodity flow.  Each commodity carries a
   private virtual access edge of capacity d_h whose length grows as the
   commodity gets served; flow is pushed along the globally cheapest
   (virtual + real) shortest path until every such path has length >= 1. *)
let max_sum ?(vertex_ok = all) ?(edge_ok = all) ?(eps = 0.1) ~cap g demands =
  check_eps eps;
  let demands = live_demands demands in
  let net = network ~vertex_ok ~edge_ok ~cap g in
  if demands = [] || net.live_count = 0 then
    List.map (fun demand -> { Routing.demand; paths = [] }) demands
  else begin
    Obs.count "gk.calls";
    let { live; capa; _ } = net in
    let darr = Array.of_list demands in
    let nh = Array.length darr in
    (* virtual edges count towards the delta sizing *)
    let delta = delta ~eps (float_of_int (net.live_count + nh)) in
    let len = initial_lengths net delta in
    let vlen = Array.map (fun d -> delta /. d.Commodity.amount) darr in
    let routed = Array.make nh 0.0 in
    let paths = Array.make nh [] in
    let continue = ref true in
    while !continue do
      Obs.count "gk.phases";
      continue := false;
      for h = 0 to nh - 1 do
        let d = darr.(h) in
        let rec push () =
          match
            Dijkstra.shortest_path ~edge_ok:(fun e -> live.(e))
              ~length:(fun e -> len.(e))
              g d.Commodity.src d.Commodity.dst
          with
          | None | Some [] -> ()
          | Some p ->
            let dist =
              List.fold_left (fun acc e -> acc +. len.(e)) vlen.(h) p
            in
            if dist < 1.0 then begin
              let bottleneck =
                List.fold_left
                  (fun a e -> Float.min a capa.(e))
                  d.Commodity.amount p
              in
              routed.(h) <- routed.(h) +. bottleneck;
              paths.(h) <- (p, bottleneck) :: paths.(h);
              List.iter
                (fun e ->
                  len.(e) <-
                    len.(e) *. (1.0 +. (eps *. bottleneck /. capa.(e))))
                p;
              vlen.(h) <-
                vlen.(h) *. (1.0 +. (eps *. bottleneck /. d.Commodity.amount));
              continue := true;
              push ()
            end
        in
        push ()
      done
    done;
    (* Certify feasibility: uniform scaling by the worst congestion over
       real and virtual edges, then trim each demand to its amount. *)
    let congestion = ref (congestion net ~floor:1.0 paths) in
    for h = 0 to nh - 1 do
      if routed.(h) > 0.0 then
        congestion :=
          Float.max !congestion (routed.(h) /. darr.(h).Commodity.amount)
    done;
    List.mapi
      (fun h demand ->
        let target =
          Float.min demand.Commodity.amount (routed.(h) /. !congestion)
        in
        let paths = trim ~congestion:!congestion ~target paths.(h) in
        { Routing.demand; paths })
      demands
  end

(* The Fleischer phase loop for maximum concurrent flow, shared by the
   reference run and the routability verdict.  [None] means the
   weak-duality bound proved lambda* < 1 (only with [dual_exit]). *)
let concurrent ~dual_exit ~vertex_ok ~edge_ok ~eps ~cap g demands =
  check_eps eps;
  let demands = live_demands demands in
  let net = network ~vertex_ok ~edge_ok ~cap g in
  if demands = [] then Some { lambda = infinity; routing = Routing.empty }
  else if net.live_count = 0 then Some { lambda = 0.0; routing = Routing.empty }
  else begin
    Obs.count "gk.calls";
    let { live; capa; _ } = net in
    let m = Array.length live in
    let mf = float_of_int net.live_count in
    let delta = delta ~eps mf in
    let len = initial_lengths net delta in
    (* D(l) = sum_e c_e l_e; the algorithm stops when D >= 1. *)
    let dsum = ref (mf *. delta) in
    let darr = Array.of_list demands in
    let nh = Array.length darr in
    let routed = Array.make nh 0.0 in
    let paths = Array.make nh [] in
    (* per-commodity accumulated (path, amount), unscaled *)
    let disconnected = ref false in
    let proved_below_one = ref false in
    let shortest h =
      Dijkstra.shortest_path ~edge_ok:(fun e -> live.(e))
        ~length:(fun e -> len.(e))
        g darr.(h).Commodity.src darr.(h).Commodity.dst
    in
    while !dsum < 1.0 && not !disconnected && not !proved_below_one do
      Obs.count "gk.phases";
      (* One Fleischer phase: route each commodity's full demand.
         [alpha] sums d_h times the length of h's first shortest path in
         the phase; lengths only grow, so it never exceeds the
         demand-weighted shortest-path length at the phase end. *)
      let alpha = ref 0.0 in
      let h = ref 0 in
      while !h < nh && not !disconnected do
        let amount = darr.(!h).Commodity.amount in
        let remaining = ref amount in
        let first = ref dual_exit in
        while Num.positive ~eps:Num.cap_eps !remaining && !dsum < 1.0
              && not !disconnected do
          match shortest !h with
          | None | Some [] -> disconnected := true
          | Some p ->
            if !first then begin
              first := false;
              let dist = List.fold_left (fun a e -> a +. len.(e)) 0.0 p in
              alpha := !alpha +. (amount *. dist)
            end;
            let bottleneck =
              List.fold_left (fun a e -> Float.min a capa.(e)) infinity p
            in
            let f = Float.min bottleneck !remaining in
            remaining := !remaining -. f;
            routed.(!h) <- routed.(!h) +. f;
            paths.(!h) <- (p, f) :: paths.(!h);
            List.iter
              (fun e ->
                let old_len = len.(e) in
                let new_len = old_len *. (1.0 +. (eps *. f /. capa.(e))) in
                len.(e) <- new_len;
                dsum := !dsum +. (capa.(e) *. (new_len -. old_len)))
              p
        done;
        incr h
      done;
      (* Weak duality: lambda* <= D(l) / alpha(l) <= D(l) / alpha.  D is
         summed afresh (the [dsum] accumulator drifts); the margin keeps
         the proof clear of rounding. *)
      if dual_exit && !dsum < 1.0 && not !disconnected then begin
        let d = ref 0.0 in
        for e = 0 to m - 1 do
          if live.(e) then d := !d +. (capa.(e) *. len.(e))
        done;
        if !d < (1.0 -. Num.feas_eps) *. !alpha then begin
          Obs.count "gk.dual_exits";
          proved_below_one := true
        end
      end
    done;
    if !proved_below_one then None
    else if !disconnected then Some { lambda = 0.0; routing = Routing.empty }
    else begin
      (* Certify: scale the accumulated flow by the worst congestion. *)
      let congestion = congestion net ~floor:Num.cap_eps paths in
      let lambda = ref infinity in
      for h = 0 to nh - 1 do
        lambda :=
          Float.min !lambda
            (routed.(h) /. congestion /. darr.(h).Commodity.amount)
      done;
      let lambda = !lambda in
      (* Build a routing serving min(1, lambda) of each demand: scale every
         path by 1/congestion, then trim the excess beyond the target. *)
      let routing =
        List.mapi
          (fun h demand ->
            let target = Float.min 1.0 lambda *. demand.Commodity.amount in
            { Routing.demand; paths = trim ~congestion ~target paths.(h) })
          demands
      in
      Some { lambda; routing }
    end
  end

let max_concurrent ?(vertex_ok = all) ?(edge_ok = all) ?(eps = 0.1) ~cap g
    demands =
  Option.get
    (concurrent ~dual_exit:false ~vertex_ok ~edge_ok ~eps ~cap g demands)

let routable ?(vertex_ok = all) ?(edge_ok = all) ?(eps = 0.1) ~cap g demands =
  match concurrent ~dual_exit:true ~vertex_ok ~edge_ok ~eps ~cap g demands with
  | None -> `Unroutable
  | Some { lambda; routing } ->
    if Num.geq ~eps:Num.feas_eps lambda 1.0 then `Routable routing
    else if lambda < 1.0 -. (3.0 *. eps) then `Unroutable
    else `Unknown
