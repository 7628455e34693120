type request = { msg : Amsg.t; at : int }
type t = request list

let make specs topo =
  List.mapi
    (fun id (src, dst, at) -> { msg = Amsg.make ~id ~src ~dst topo; at })
    specs

let one_per_group topo =
  make
    (List.map
       (fun g -> (Pset.choose (Topology.group topo g), g, 0))
       (Topology.gids topo))
    topo

let random rng ~msgs ~max_at topo =
  let k = Topology.num_groups topo in
  make
    (List.init msgs (fun _ ->
         let dst = Rng.int rng k in
         let src = Rng.pick_set rng (Topology.group topo dst) in
         let at = if max_at <= 0 then 0 else Rng.int rng max_at in
         (src, dst, at)))
    topo

let messages t = List.map (fun r -> r.msg) t
let message t id = List.find (fun r -> r.msg.Amsg.id = id) t |> fun r -> r.msg

let never = max_int
