module Num = Netrec_util.Num
module Obs = Netrec_obs.Obs

type verdict =
  | Routable of Routing.t
  | Unroutable
  | Unknown

let all _ = true

let connectivity_ok ~vertex_ok ~edge_ok g demands =
  (* One BFS per distinct source vertex. *)
  let by_src = Hashtbl.create 8 in
  List.iter
    (fun d ->
      let s = d.Commodity.src in
      let dsts = Option.value ~default:[] (Hashtbl.find_opt by_src s) in
      Hashtbl.replace by_src s (d.Commodity.dst :: dsts))
    demands;
  Hashtbl.fold
    (fun s dsts acc ->
      acc
      &&
      let dist = Traverse.bfs_dist ~vertex_ok ~edge_ok g s in
      List.for_all (fun t -> dist.(t) < max_int) dsts)
    by_src true

let routable ?budget ?(vertex_ok = all) ?(edge_ok = all) ?lp_var_budget
    ?(gk_eps = 0.1) ~cap g demands =
  let demands = Commodity.normalize demands in
  if demands = [] then Routable Routing.empty
  else begin
    (* Capacity-aware availability: a zero-capacity edge is unusable. *)
    let edge_ok e = edge_ok e && Num.positive ~eps:Num.cap_eps (cap e) in
    if not (connectivity_ok ~vertex_ok ~edge_ok g demands) then Unroutable
    else
      match
        Obs.span "oracle.greedy" (fun () ->
            Route_greedy.route_all ~vertex_ok ~edge_ok ~cap g demands)
      with
      | Some routing -> Routable routing
      | None -> (
        match
          Obs.span "oracle.lp" (fun () ->
              Mcf_lp.feasible ?budget ~vertex_ok ~edge_ok
                ?var_budget:lp_var_budget ~cap g demands)
        with
        | Mcf_lp.Routable routing -> Routable routing
        | Mcf_lp.Unroutable -> Unroutable
        | Mcf_lp.Undecided -> Unknown
        | Mcf_lp.Too_big -> (
          match
            Obs.span "oracle.gk" (fun () ->
                Gk.routable ~vertex_ok ~edge_ok ~eps:gk_eps ~cap g demands)
          with
          | `Routable routing -> Routable routing
          | `Unroutable -> Unroutable
          | `Unknown -> Unknown))
  end

let max_satisfiable ?budget ?(vertex_ok = all) ?(edge_ok = all) ?lp_var_budget
    ~cap g demands =
  let edge_ok e = edge_ok e && Num.positive ~eps:Num.cap_eps (cap e) in
  match
    Mcf_lp.max_total ?budget ~vertex_ok ~edge_ok ?var_budget:lp_var_budget
      ~cap g demands
  with
  | `Routing r -> r
  | `Too_big | `Undecided ->
    (* Two certified lower bounds at large scale: the constructive router
       and the Garg-Konemann max-sum approximation; report the better. *)
    let greedy = Route_greedy.route_max ~vertex_ok ~edge_ok ~cap g demands in
    if Num.geq ~eps:Num.flow_eps (Routing.satisfaction ~demands greedy) 1.0
    then greedy
    else begin
      let gk = Gk.max_sum ~vertex_ok ~edge_ok ~cap g demands in
      if Routing.total_routed gk > Routing.total_routed greedy then gk
      else greedy
    end
