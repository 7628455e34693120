type src = Fresh of Rng.t | Replay of int list ref

type t = { src : src; mutable trail : int list (* reversed *) }

let of_rng rng = { src = Fresh rng; trail = [] }
let of_list vs = { src = Replay (ref vs); trail = [] }

let draw c bound =
  let v =
    match c.src with
    | Fresh rng -> Rng.int rng bound
    | Replay rest -> (
        match !rest with
        | [] -> 0
        | v :: tl ->
            rest := tl;
            ((v mod bound) + bound) mod bound)
  in
  c.trail <- v :: c.trail;
  v

let int c bound =
  if bound <= 0 then invalid_arg "Choice.int: bound must be positive";
  draw c bound

let range c lo hi =
  if lo > hi then invalid_arg "Choice.range: empty range";
  lo + draw c (hi - lo + 1)

let pick c = function
  | [] -> invalid_arg "Choice.pick: empty list"
  | l -> List.nth l (draw c (List.length l))

let recorded c = List.rev c.trail
