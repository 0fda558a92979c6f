type load_shape = [ `Poisson | `Bursty | `Diurnal ]

type t = {
  pipeline : int;
  verify_jobs : int;
  cluster_send : bool;
  load_shape : load_shape;
  load_rate : float option;
  skew : float;
  shards : int;
  batch_min_fill : int option;
  batch_hold : Bp_sim.Time.t option;
  cache : bool;
}

let default =
  {
    pipeline = 1;
    verify_jobs = 1;
    cluster_send = false;
    load_shape = `Poisson;
    load_rate = None;
    skew = 0.99;
    shards = 1;
    batch_min_fill = None;
    batch_hold = None;
    cache = true;
  }
