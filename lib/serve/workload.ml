type request = {
  rq_id : int;
  rq_tenant : int;
  rq_arrival : float;
  rq_scenario : string;
  rq_policy : int;
  rq_seed : int;
  rq_work : float;
}

type config = {
  wl_seed : int;
  wl_requests : int;
  wl_rate : float;
  wl_tenants : int;
  wl_zipf : float;
  wl_tail : float;
  wl_tail_cap : float;
  wl_scenarios : string list;
  wl_policies : int;
}

let default =
  {
    wl_seed = 1;
    wl_requests = 2000;
    wl_rate = 200.;
    wl_tenants = 100;
    wl_zipf = 1.1;
    wl_tail = 1.5;
    wl_tail_cap = 20.;
    wl_scenarios = [ "counters"; "guarded" ];
    wl_policies = 8;
  }

(* Bounded Pareto via inverse transform: heavy-tailed service demand
   without unbounded outliers that would make a smoke run open-ended. *)
let pareto rng ~shape ~cap =
  let u = Rng.float rng 1. in
  Float.min cap ((1. -. u) ** (-1. /. shape))

(* Every float check is written so that NaN fails it. *)
let validate c =
  if c.wl_requests < 0 then invalid_arg "Workload.generate: negative requests";
  if not (c.wl_rate > 0.) then invalid_arg "Workload.generate: rate must be > 0";
  if c.wl_tenants < 1 then invalid_arg "Workload.generate: no tenants";
  if Float.is_nan c.wl_zipf then invalid_arg "Workload.generate: zipf is NaN";
  if c.wl_scenarios = [] then invalid_arg "Workload.generate: no scenarios";
  if c.wl_policies < 1 then invalid_arg "Workload.generate: no policies";
  if not (c.wl_tail > 0.) then invalid_arg "Workload.generate: tail shape <= 0";
  if not (c.wl_tail_cap > 0.) then
    invalid_arg "Workload.generate: tail cap must be > 0"

let iter c f =
  validate c;
  let rng = Rng.create ~seed:c.wl_seed in
  (* Zipf tenants by inversion: the table is built once per stream, and
     a request costs one uniform draw and a guided lookup. *)
  let zipf = Zipf.table ~tenants:c.wl_tenants ~s:c.wl_zipf in
  let scenarios = Array.of_list c.wl_scenarios in
  let mean = 1. /. c.wl_rate in
  let clock = ref 0. in
  for i = 0 to c.wl_requests - 1 do
    (* One fixed draw order per request — interarrival, tenant,
       scenario, policy, seed, work — so the stream replays exactly. *)
    clock := !clock +. Rng.exponential rng ~mean;
    let tenant = Zipf.pick zipf (Rng.float rng 1.) in
    let scenario = scenarios.(Rng.int rng (Array.length scenarios)) in
    let policy = Rng.int rng c.wl_policies in
    let seed = 1 + Rng.int rng 9973 in
    let work = pareto rng ~shape:c.wl_tail ~cap:c.wl_tail_cap in
    f
      {
        rq_id = i;
        rq_tenant = tenant;
        rq_arrival = !clock;
        rq_scenario = scenario;
        rq_policy = policy;
        rq_seed = seed;
        rq_work = work;
      }
  done

let generate c =
  let out = ref [||] in
  iter c (fun rq ->
      if rq.rq_id = 0 then out := Array.make c.wl_requests rq;
      !out.(rq.rq_id) <- rq);
  !out
