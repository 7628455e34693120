type instance = { participants : Pset.t; algo : Algorithm1.t; k : int }

type t = {
  fp : Failure_pattern.t;
  scope : Pset.t; (* g ∪ h *)
  a_g : instance;
  a_h : instance;
  mutable flag : bool;
}

let make_instance seed topo fp dst participants =
  let members = Pset.to_list participants in
  let workload = Workload.make (List.map (fun p -> (p, dst, 0)) members) topo in
  let mu = Mu.make ~seed topo fp in
  {
    participants;
    algo = Algorithm1.create ~variant:Algorithm1.Strict ~topo ~mu ~workload ();
    k = List.length members;
  }

let create ?(seed = 13) ~topo ~fp ~g ~h () =
  if g = h then invalid_arg "Indicator_extract.create: g = h";
  let gs = Topology.group topo g and hs = Topology.group topo h in
  if Pset.is_empty (Pset.inter gs hs) then
    invalid_arg "Indicator_extract.create: groups do not intersect";
  let g_only = Pset.diff gs hs and h_only = Pset.diff hs gs in
  {
    fp;
    scope = Pset.union gs hs;
    a_g = make_instance seed topo fp g g_only;
    a_h = make_instance (seed + 1) topo fp h h_only;
    flag = false;
  }

let delivered_any inst p =
  List.exists (fun m -> Algorithm1.delivered inst.algo ~pid:p ~m) (List.init inst.k Fun.id)

let step t ~pid:p ~time =
  let run inst =
    let progressed = Algorithm1.step inst.algo ~pid:p ~time in
    if delivered_any inst p then t.flag <- true;
    progressed
  in
  if Pset.mem p t.a_g.participants then run t.a_g
  else if Pset.mem p t.a_h.participants then run t.a_h
  else false

let query t p = if Pset.mem p t.scope then Some t.flag else None

let run t ~horizon =
  Recorder.record ~equal:(Option.equal Bool.equal) ~fp:t.fp ~horizon
    ~step:(step t) ~query:(query t)
