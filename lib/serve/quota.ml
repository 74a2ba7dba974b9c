(* GCRA with an integer step counter.

   State is (base, steps): the theoretical arrival time of the next
   conforming request is [base + steps/rate], and a request at [now] is
   conforming iff it is within the burst tolerance,

     now >= base + (steps - burst + 1)/rate
     <=>  (now - base) * rate >= steps - burst + 1.

   Every decision computes that product from scratch — one subtraction
   and one multiply against an exact integer — instead of advancing a
   float accumulator per request, so there is no error term that can
   compound across requests. [base] re-anchors to [now] whenever the
   bucket has fully refilled (now past the TAT), which keeps [steps]
   small under intermittent load; under sustained saturation [steps]
   grows but the arithmetic stays two operations from exact inputs. *)

(* [base] sits alone in an all-float record, which OCaml stores flat:
   re-anchoring it stores a double instead of boxing a fresh float. *)
type anchor = { mutable base : float }

type t = {
  rate : float;
  burst : int;
  a : anchor;
  mutable steps : int;
  mutable admits : int;
}

let create ~rate ~burst =
  if not (rate > 0.) then invalid_arg "Quota.create: rate must be > 0";
  if burst < 1 then invalid_arg "Quota.create: burst must be >= 1";
  { rate; burst; a = { base = 0. }; steps = 0; admits = 0 }

let conforming t ~now =
  (now -. t.a.base) *. t.rate >= float_of_int (t.steps - t.burst + 1)

let charge t ~now =
  let tat = t.a.base +. (float_of_int t.steps /. t.rate) in
  if now > tat then begin
    t.a.base <- now;
    t.steps <- 1
  end
  else t.steps <- t.steps + 1;
  t.admits <- t.admits + 1

(* Multi-class admission: a request is admitted only when every
   applicable bucket conforms, and tokens are consumed only then. The
   check/charge split is what keeps composite sheds pure — a request
   denied by its tenant bucket must not burn a token from the global
   one, or shed traffic would push every other tenant's refill schedule
   around. *)
let rec all_conform buckets ~now =
  match buckets with
  | [] -> true
  | t :: rest -> conforming t ~now && all_conform rest ~now

let rec charge_all buckets ~now =
  match buckets with
  | [] -> ()
  | t :: rest ->
      charge t ~now;
      charge_all rest ~now

let admit_all buckets ~now =
  if all_conform buckets ~now then begin
    charge_all buckets ~now;
    true
  end
  else false

let admitted t = t.admits

let tokens t ~now =
  let avail = ((now -. t.a.base) *. t.rate) -. float_of_int t.steps
              +. float_of_int t.burst in
  Float.max 0. (Float.min (float_of_int t.burst) avail)
