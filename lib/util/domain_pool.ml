(* Fixed worker domains over a chunked index queue, with sequential
   semantics: ordered results, earliest-index winners, earliest-index
   exceptions. See the interface for the contract. *)

type exn_site = { index : int; exn : exn; bt : Printexc.raw_backtrace }

let default_jobs () = Domain.recommended_domain_count ()

let clamp_jobs jobs n =
  (* One domain per unit of work at most; cap the pool well below the
     runtime's domain limit. *)
  max 1 (min jobs (min n 64))

let default_chunk n jobs = max 1 (min 64 (n / (jobs * 8)))

(* Keep the smallest-index exception; the pool re-raises it after the
   drain, so concurrent discovery order never leaks into behaviour. *)
let record_exn slot site =
  let rec go () =
    let cur = Atomic.get slot in
    let smaller =
      match cur with None -> true | Some c -> site.index < c.index
    in
    if smaller && not (Atomic.compare_and_set slot cur (Some site)) then go ()
  in
  go ()

let reraise site = Printexc.raise_with_backtrace site.exn site.bt

(* ------------------------------------------------------------------ *)
(* map                                                                 *)
(* ------------------------------------------------------------------ *)

let map_seq n f =
  (* Explicit 0..n-1 loop: Array.init's evaluation order is
     unspecified, and the earliest-exception guarantee needs it. *)
  if n = 0 then [||]
  else
    let out = Array.make n None in
    for i = 0 to n - 1 do
      out.(i) <- Some (f i)
    done;
    Array.map Option.get out

let map ?(jobs = 1) ?chunk n f =
  if n < 0 then invalid_arg "Domain_pool.map: negative size";
  let jobs = clamp_jobs jobs n in
  if jobs <= 1 || n <= 1 then map_seq n f
  else begin
    let chunk =
      match chunk with Some c -> max 1 c | None -> default_chunk n jobs
    in
    let out = Array.make n None in
    let next = Atomic.make 0 in
    let failed = Atomic.make (None : exn_site option) in
    (* racecheck: workers share [out], but the Atomic [next] hands each
       index to exactly one claimant, so writes to out.(i) are disjoint
       and happen-before the joins that read them. *)
    let[@lint.allow "shared-mutable-capture"] worker () =
      let continue = ref true in
      while !continue do
        let start = Atomic.fetch_and_add next chunk in
        if start >= n || Atomic.get failed <> None then continue := false
        else
          for i = start to min (start + chunk) n - 1 do
            match f i with
            | v -> out.(i) <- Some v
            | exception exn ->
                record_exn failed
                  { index = i; exn; bt = Printexc.get_raw_backtrace () }
          done
      done
    in
    let domains = Array.init (jobs - 1) (fun _ -> Domain.spawn worker) in
    worker ();
    Array.iter Domain.join domains;
    match Atomic.get failed with
    | Some site -> reraise site
    | None -> Array.map Option.get out
  end

(* ------------------------------------------------------------------ *)
(* find_first                                                          *)
(* ------------------------------------------------------------------ *)

let find_first_seq n f =
  let rec go i =
    if i >= n then None
    else match f i with Some v -> Some (i, v) | None -> go (i + 1)
  in
  go 0

let find_first ?(jobs = 1) ?chunk n f =
  if n < 0 then invalid_arg "Domain_pool.find_first: negative size";
  let jobs = clamp_jobs jobs n in
  if jobs <= 1 || n <= 1 then find_first_seq n f
  else begin
    let chunk =
      match chunk with Some c -> max 1 c | None -> default_chunk n jobs
    in
    let found = Array.make n None in
    (* [bound] is the smallest index known to terminate the sequential
       scan — a match or a raise. Indices above it are cancelled:
       pending ones are never claimed, in-flight results discarded. *)
    let bound = Atomic.make max_int in
    let failed = Atomic.make (None : exn_site option) in
    let lower i =
      let rec go () =
        let cur = Atomic.get bound in
        if i < cur && not (Atomic.compare_and_set bound cur i) then go ()
      in
      go ()
    in
    let next = Atomic.make 0 in
    (* racecheck: workers share [found], but the Atomic [next] hands
       each index to exactly one claimant, so writes to found.(i) are
       disjoint and happen-before the join that reads found.(b). *)
    let[@lint.allow "shared-mutable-capture"] worker () =
      let continue = ref true in
      while !continue do
        let start = Atomic.fetch_and_add next chunk in
        if start >= n || start > Atomic.get bound then continue := false
        else
          for i = start to min (start + chunk) n - 1 do
            if i < Atomic.get bound then
              match f i with
              | Some v ->
                  found.(i) <- Some v;
                  lower i
              | None -> ()
              | exception exn ->
                  record_exn failed
                    { index = i; exn; bt = Printexc.get_raw_backtrace () };
                  lower i
          done
      done
    in
    let domains = Array.init (jobs - 1) (fun _ -> Domain.spawn worker) in
    worker ();
    Array.iter Domain.join domains;
    let b = Atomic.get bound in
    if b = max_int then None
    else
      match found.(b) with
      | Some v -> Some (b, v)
      | None -> (
          (* The scan terminated at [b] by raising, and no smaller
             index matched. *)
          match Atomic.get failed with
          | Some site when site.index = b -> reraise site
          | _ -> assert false)
  end
