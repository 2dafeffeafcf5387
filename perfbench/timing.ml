(* Monotonic time and the latency arithmetic of the load generator.

   Every timestamp is an integer count of nanoseconds from the installed
   monotonic clock (bechamel's clock_gettime(CLOCK_MONOTONIC) stub), never
   wall-clock time: an NTP step must not show up as a latency. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

let seconds ns = float_of_int ns /. 1e9

(* Open loop: request [i] is due [i / rate] seconds after [start],
   whether or not the server kept up.  Latency runs from this due time,
   not from the moment the generator got round to sending, so a stall
   also charges the requests queued behind it. *)
let due_ns ~start ~rate i = start + int_of_float (float_of_int i *. 1e9 /. rate)

let latency_ns ~due ~received = received - due
let lag_ns ~due ~sent = max 0 (sent - due)

type summary = {
  count : int;
  p50 : int;
  p99 : int;
  beyond_p99 : int;  (* samples strictly above the p99 value *)
  max : int;
}

(* Nearest-rank percentiles (Obs.Stats), on a sorted copy. *)
let summarize samples =
  let s = Array.copy samples in
  Array.sort Int.compare s;
  let p99 = Obs.Stats.percentile s 0.99 in
  {
    count = Array.length s;
    p50 = Obs.Stats.percentile s 0.50;
    p99;
    beyond_p99 = Array.fold_left (fun acc x -> if x > p99 then acc + 1 else acc) 0 s;
    max = Obs.Stats.percentile s 1.0;
  }

let median samples = (summarize samples).p50

(* Run [f] and return its result with the elapsed nanoseconds. *)
let timed f =
  let t0 = now_ns () in
  let r = f () in
  (r, now_ns () - t0)
