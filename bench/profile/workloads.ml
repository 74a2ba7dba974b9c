(* The four serving workloads. Scenarios are counters and guarded, the
   first 8 policies of the matrix (4 of them 3-node consensus), 64
   lanes, batches of up to 8 closing after 0.05 s: the Workload and
   Server defaults, except where a workload says otherwise. Why each
   one exists, and which layers it should stress, is in README.md and
   BENCHMARK.json. *)

type t = {
  name : string;
  wl : Workload.config;  (** [wl_seed] is replaced by each rep's seed. *)
  sv : Server.config;  (** [sv_jobs] is the workload's job count. *)
  reps : int;  (** Timed reps of [altprof run]. *)
  pin_seed1 : int64;  (** [Server.digest] at workload seed 1. *)
  pin_fold : int64;
      (** {!fold} of the digests of [reps] reps at workload seeds
          [1 .. reps]. *)
}

let stream ~requests ~rate =
  { Workload.default with Workload.wl_requests = requests; wl_rate = rate }

let all =
  [
    {
      name = "serve-steady";
      wl = stream ~requests:20_000 ~rate:200.;
      sv = { Server.default with Server.sv_jobs = 2 };
      reps = 25;
      pin_seed1 = 0x9881471427d24f35L;
      pin_fold = 0x46a6a9c7edaa2257L;
    };
    {
      name = "serve-sanitize";
      wl = stream ~requests:20_000 ~rate:200.;
      sv = { Server.default with Server.sv_sanitize = true };
      reps = 18;
      pin_seed1 = 0x9881471427d24f35L;
      pin_fold = 0xd73268f9802b9d7bL;
    };
    {
      name = "serve-overload";
      wl = stream ~requests:100_000 ~rate:800.;
      sv =
        {
          Server.default with
          Server.sv_ladder =
            { (Controller.default ~lanes:64) with Controller.dc_enabled = true };
        };
      reps = 40;
      pin_seed1 = 0x7559db2f3831e915L;
      pin_fold = 0x369c6c177ef8a5beL;
    };
    {
      name = "serve-faults";
      wl = stream ~requests:20_000 ~rate:200.;
      sv = { Server.default with Server.sv_faults = Some 7 };
      reps = 20;
      pin_seed1 = 0x9ef105b20658c72dL;
      pin_fold = 0xd1daf28d61db6c4cL;
    };
  ]

let find name = List.find_opt (fun w -> String.equal w.name name) all
let names = List.map (fun w -> w.name) all

(* FNV-1a over the reps' digests, in rep order (the same hash
   [Server.digest] uses over responses). *)
let fold digests =
  List.fold_left
    (fun h d ->
      let h = ref h in
      for byte = 0 to 7 do
        let b = Int64.logand (Int64.shift_right_logical d (8 * byte)) 0xffL in
        h := Int64.mul (Int64.logxor !h b) 0x100000001b3L
      done;
      !h)
    0xcbf29ce484222325L digests
