(* Group-family sharding: processes in different components of
   [Topology.process_components] can never influence each other in
   any run (every shared object is keyed by the groups of the process
   touching it), so a scenario splits into one fully independent
   sub-scenario per component. Each shard is renumbered to a dense
   universe and run by the ordinary [Runner] — per-shard traces are
   therefore bit-identical whether shards run sequentially or on
   [Domain_pool] workers, which is the trace-identity contract the
   test suite pins. *)

type shard = {
  label : int;
  topo : Topology.t;
  fp : Failure_pattern.t;
  workload : Workload.t;
  procs : int array;
  gids : Topology.gid array;
  msg_ids : int array;
}

let plan ~topo ~fp workload =
  let comp = Topology.process_components topo in
  let n = Topology.n topo in
  (* Component labels that actually contain a group, in increasing
     order (a group-less process can never take a step). *)
  let labels =
    List.sort_uniq Int.compare
      (List.map
         (fun g -> comp.(Pset.choose (Topology.group topo g)))
         (Topology.gids topo))
  in
  List.map
    (fun label ->
      let procs =
        Array.of_list
          (List.filter (fun p -> comp.(p) = label) (List.init n Fun.id))
      in
      let local_of = Array.make n (-1) in
      Array.iteri (fun i p -> local_of.(p) <- i) procs;
      let gids =
        Array.of_list
          (List.filter
             (fun g -> comp.(Pset.choose (Topology.group topo g)) = label)
             (Topology.gids topo))
      in
      let sub_topo =
        Topology.create ~n:(Array.length procs)
          (List.map
             (fun g ->
               Pset.of_list
                 (List.map
                    (fun p -> local_of.(p))
                    (Pset.to_list (Topology.group topo g))))
             (Array.to_list gids))
      in
      let gid_of = Array.make (Topology.num_groups topo) (-1) in
      Array.iteri (fun i g -> gid_of.(g) <- i) gids;
      let reqs =
        List.filter (fun r -> gid_of.(r.Workload.msg.Amsg.dst) >= 0) workload
      in
      let msg_ids = Array.of_list (List.map (fun r -> r.Workload.msg.Amsg.id) reqs) in
      let sub_workload =
        List.mapi
          (fun id { Workload.msg; at } ->
            {
              Workload.msg =
                Amsg.make ~id ~src:local_of.(msg.Amsg.src)
                  ~dst:gid_of.(msg.Amsg.dst) ~payload:msg.Amsg.payload
                  sub_topo;
              at;
            })
          reqs
      in
      let sub_fp =
        Failure_pattern.of_crashes ~n:(Array.length procs)
          (List.filter_map
             (fun p ->
               match Failure_pattern.crash_time fp p with
               | Some t when local_of.(p) >= 0 -> Some (local_of.(p), t)
               | _ -> None)
             (List.init n Fun.id))
      in
      {
        label;
        topo = sub_topo;
        fp = sub_fp;
        workload = sub_workload;
        procs;
        gids;
        msg_ids;
      })
    labels

let run ?jobs ?(seed = 1) ?batching shards =
  (* The worker closure captures only the immutable shard list (walked
     by index) and scalar options; every mutable cell of a run is
     created inside the worker, so the racecheck pass needs no
     suppression. *)
  Domain_pool.map ?jobs (List.length shards) (fun i ->
      let s = List.nth shards i in
      Runner.run ~seed ?batching ~topo:s.topo ~fp:s.fp
        ~workload:s.workload ())
