module type S = sig
  module P : Topk_core.Sigs.PROBLEM

  type topk

  type max

  type shard = private {
    index : int;
    elems : P.elem array;
    topk : topk;
    max : max;
  }

  type t

  val build : ?params:Topk_core.Params.t -> P.elem array array -> t

  val of_elems :
    ?params:Topk_core.Params.t ->
    strategy:P.elem Partitioner.strategy ->
    shards:int ->
    P.elem array ->
    t

  val shard_count : t -> int

  val shards : t -> shard array

  val size : t -> int

  val space_words : t -> int

  val upper_bound : t -> int -> P.query -> float option

  val topk_query : t -> int -> P.query -> k:int -> P.elem list

  val pp : Format.formatter -> t -> unit
end

module Make
    (T : Topk_core.Sigs.TOPK)
    (M : Topk_core.Sigs.MAX with module P = T.P) :
  S with module P = T.P and type topk = T.t and type max = M.t = struct
  module P = T.P

  type topk = T.t

  type max = M.t

  type shard = {
    index : int;
    elems : P.elem array;
    topk : topk;
    max : max;
  }

  type t = { shard_arr : shard array }

  let build_one ?params ~index elems =
    let elems = Array.copy elems in
    { index; elems; topk = T.build ?params elems; max = M.build ?params elems }

  let build ?params partition =
    {
      shard_arr =
        Array.mapi (fun i elems -> build_one ?params ~index:i elems) partition;
    }

  let of_elems ?params ~strategy ~shards elems =
    build ?params (Partitioner.split ~strategy ~shards elems)

  let shard_count t = Array.length t.shard_arr

  let shards t = t.shard_arr

  let size t =
    Array.fold_left (fun acc s -> acc + Array.length s.elems) 0 t.shard_arr

  let space_words t =
    Array.fold_left
      (fun acc s -> acc + T.space_words s.topk + M.space_words s.max)
      0 t.shard_arr

  let upper_bound t i q =
    Option.map P.weight (M.query t.shard_arr.(i).max q)

  let topk_query t i q ~k = T.query t.shard_arr.(i).topk q ~k

  let pp ppf t =
    Format.fprintf ppf "@[<h>%d shard(s) over %s+%s: [%s], n=%d, %d words@]"
      (shard_count t) T.name M.name
      (String.concat ", "
         (Array.to_list
            (Array.map
               (fun s -> string_of_int (Array.length s.elems))
               t.shard_arr)))
      (size t) (space_words t)
end
