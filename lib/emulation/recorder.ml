let record ~equal ~fp ~horizon ~step ~query =
  let row () = Array.init (Failure_pattern.n fp) query in
  let history = Array.make (horizon + 1) [||] in
  let settle = ref 0 in
  let record_row t row =
    if t > 0 && not (Array.for_all2 equal row history.(t - 1)) then settle := t;
    if t <= horizon then history.(t) <- row
  in
  ignore
    (Engine.run ~fp ~horizon ~quiesce_after:horizon ~step
       ~on_tick:(fun t -> record_row t (row ())) ());
  record_row (horizon + 1) (row ());
  ( (fun p t -> if t >= 0 && t <= horizon then history.(t).(p) else query p),
    !settle )
