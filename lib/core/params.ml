type t = {
  lambda : float;
  q_pri : int -> float;
  q_max : int -> float;
  sigma : float;
  coreset_scale : float;
  max_sample_retries : int;
  seed : int;
}

let log2 n = max 1. (Float.log2 (float_of_int (max 2 n)))

let ln n = max 1. (Float.log (float_of_int (max 2 n)))

let block_size () = (Topk_em.Config.current ()).Topk_em.Config.b

let default =
  {
    lambda = 2.;
    q_pri = log2;
    q_max = log2;
    sigma = 1. /. 20.;
    coreset_scale = 1.;
    max_sample_retries = 20;
    seed = 42;
  }
