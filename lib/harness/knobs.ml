type load_shape = [ `Poisson | `Bursty | `Diurnal ]

type t = { load_shape : load_shape; load_rate : float option; skew : float }

let default = { load_shape = `Poisson; load_rate = None; skew = 0.99 }
