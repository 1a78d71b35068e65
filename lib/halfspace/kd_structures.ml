module Pri
    (Q : Predicates.QUERY_SPEC)
    (P : Topk_core.Sigs.PROBLEM
           with type elem = Pointd.t
            and type query = Q.query) =
struct
  module P = P

  type t = Kd_tree.t

  let name = "kd-" ^ Q.name

  let build ?params:_ pts = Kd_tree.build pts

  let size = Kd_tree.size

  let space_words = Kd_tree.space_words

  let visit t q ~tau { Topk_core.Sigs.one; _ } =
    Kd_tree.visit t ~tau
      ~cell_possible:(fun ~mins ~maxs -> Q.cell_possible q ~mins ~maxs)
      ~cell_certain:(fun ~mins ~maxs -> Q.cell_certain q ~mins ~maxs)
      ~matches:(fun p -> Q.matches q p)
      one

  let query t q ~tau = Topk_core.Sigs.collect (visit t q ~tau)

  let query_monitored t q ~tau ~limit =
    Topk_core.Sigs.monitor ~limit (visit t q ~tau)
end

module Max
    (Q : Predicates.QUERY_SPEC)
    (P : Topk_core.Sigs.PROBLEM
           with type elem = Pointd.t
            and type query = Q.query) =
struct
  module P = P

  type t = Kd_tree.t

  let name = "kd-max-" ^ Q.name

  let build ?params:_ pts = Kd_tree.build pts

  let size = Kd_tree.size

  let space_words = Kd_tree.space_words

  let query t q =
    Kd_tree.max_query t
      ~cell_possible:(fun ~mins ~maxs -> Q.cell_possible q ~mins ~maxs)
      ~matches:(fun p -> Q.matches q p)
end
