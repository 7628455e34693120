type instance = {
  g : Topology.gid;
  x : Pset.t;
  algo : Algorithm1.t;
  (* message id -> source, to detect deliveries at a process *)
  k : int;
}

type t = {
  topo : Topology.t;
  fp : Failure_pattern.t;
  groups : Topology.gid list;
  scope : Pset.t;
  instances : instance list;
  hb : int array; (* heartbeat counters: the ranking function's input *)
}

let subsets_of set =
  Pset.fold
    (fun p acc -> acc @ List.map (fun s -> Pset.add p s) acc)
    set [ Pset.empty ]
  |> List.filter (fun s -> not (Pset.is_empty s))

let create ?(seed = 7) ~topo ~fp ~groups () =
  let scope =
    match groups with
    | [] -> invalid_arg "Sigma_extract.create: empty G"
    | g :: rest ->
        List.fold_left
          (fun acc h -> Pset.inter acc (Topology.group topo h))
          (Topology.group topo g) rest
  in
  if Pset.is_empty scope then
    invalid_arg "Sigma_extract.create: groups do not intersect";
  let mk_instance idx g x =
    let members = Pset.to_list x in
    let workload =
      Workload.make (List.map (fun p -> (p, g, 0)) members) topo
    in
    let mu = Mu.make ~seed:(seed + idx) topo fp in
    {
      g;
      x;
      algo = Algorithm1.create ~topo ~mu ~workload ();
      k = List.length members;
    }
  in
  let instances =
    List.concat_map
      (fun g ->
        List.map (fun x -> (g, x)) (subsets_of (Topology.group topo g)))
      groups
    |> List.mapi (fun idx (g, x) -> mk_instance idx g x)
  in
  { topo; fp; groups; scope; instances; hb = Array.make (Topology.n topo) 0 }

let scope t = t.scope

let step t ~pid:p ~time =
  t.hb.(p) <- t.hb.(p) + 1;
  let rec advance = function
    | [] -> ()
    | inst :: rest ->
        if Pset.mem p inst.x && Algorithm1.step inst.algo ~pid:p ~time then ()
        else advance rest
  in
  advance t.instances;
  true

(* Q_g at p: {g} plus the subsets whose instance delivered at p. *)
let responsive t p g =
  Topology.group t.topo g
  :: List.filter_map
       (fun inst ->
         if inst.g = g && Pset.mem p inst.x then
           let delivered =
             List.exists
               (fun m -> Algorithm1.delivered inst.algo ~pid:p ~m)
               (List.init inst.k Fun.id)
           in
           if delivered then Some inst.x else None
         else None)
       t.instances

let rank t x =
  Pset.fold (fun q acc -> min acc t.hb.(q)) x max_int

(* argmax of the ranking function; deterministic tie-break on the set
   itself so all processes resolve ties identically. *)
let best t candidates =
  List.fold_left
    (fun best x ->
      match best with
      | None -> Some x
      | Some b ->
          let rx = rank t x and rb = rank t b in
          if rx > rb || (rx = rb && Pset.compare x b < 0) then Some x else Some b)
    None candidates

let query t p =
  if not (Pset.mem p t.scope) then None
  else
    let union =
      List.fold_left
        (fun acc g ->
          match best t (responsive t p g) with
          | None -> acc
          | Some qr -> Pset.union acc qr)
        Pset.empty t.groups
    in
    Some (Pset.inter union t.scope)

let run t ~horizon =
  Recorder.record ~equal:(Option.equal Pset.equal) ~fp:t.fp ~horizon
    ~step:(step t) ~query:(query t)
