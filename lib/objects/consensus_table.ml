type ('k, 'v) t = ('k, 'v) Hashtbl.t

let create () = Hashtbl.create 64
let copy = Hashtbl.copy

let propose t key v =
  match Hashtbl.find_opt t key with
  | Some decided -> decided
  | None ->
      Hashtbl.replace t key v;
      v

let decided t key = Hashtbl.find_opt t key
let instances t = Hashtbl.length t

let decisions t ~cmp =
  List.sort cmp (Hashtbl.fold (fun k v acc -> (k, v) :: acc) t [])
