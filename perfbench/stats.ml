(* Order statistics and the metric arithmetic the benchmark reports.  Kept
   free of any workload so the tests can pin every formula down. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then invalid_arg "Stats.median: no samples"
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Quartiles by the "exclusive" method (Python's
   [statistics.quantiles(xs, n=4)]): the spread check run on the
   benchmark's output uses that definition, so the benchmark's own report
   uses it too. *)
let quartiles xs =
  let a = sorted xs in
  let ld = Array.length a in
  if ld < 2 then invalid_arg "Stats.quartiles: need at least two samples"
  else
    let m = ld + 1 in
    let cut i =
      let j = max 1 (min (ld - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta)) /. 4.0
    in
    (cut 1, cut 2, cut 3)

(* The tail a timing is reported at: the highest percentile — whole
   percentiles from p50 to p99, then p99.9 and p99.99 — that still has at
   least [min_beyond] samples above it (nearest-rank).  With too few
   samples for any of them the maximum is reported, labelled as such
   ([percentile = None]). *)
let ladder = 99.99 :: 99.9 :: List.init 50 (fun i -> float_of_int (99 - i))
let min_beyond = 10

type tail = {
  percentile : float option;  (** [None]: the maximum *)
  value : float;
  samples : int;
  beyond : int;  (** samples strictly above the reported rank *)
}

let tail xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then invalid_arg "Stats.tail: no samples";
  let rank q = max 1 (int_of_float (Float.ceil ((q *. float_of_int n /. 100.0) -. 1e-9))) in
  match List.find_opt (fun q -> n - rank q >= min_beyond) ladder with
  | Some q ->
    let r = rank q in
    { percentile = Some q; value = a.(r - 1); samples = n; beyond = n - r }
  | None -> { percentile = None; value = a.(n - 1); samples = n; beyond = 0 }

let tail_label t =
  match t.percentile with
  | Some q -> Printf.sprintf "p%g (n=%d, %d beyond)" q t.samples t.beyond
  | None -> Printf.sprintf "max (n=%d: fewer than %d beyond any percentile)" t.samples min_beyond

(* --- metric arithmetic -------------------------------------------------- *)

(* 1 MB = 10^6 bytes throughout. *)
let mb bytes = float_of_int bytes /. 1e6

(* Message bytes verified at every receiver per second of transfer wall
   time, where the wall time already excludes the configured linger. *)
let goodput_mbps ~bytes ~seconds =
  if seconds <= 0.0 then invalid_arg "Stats.goodput_mbps: non-positive wall time";
  mb bytes /. seconds

let cpu_s_per_mb ~cpu_s ~bytes =
  if bytes <= 0 then invalid_arg "Stats.cpu_s_per_mb: nothing delivered";
  cpu_s /. mb bytes

(* The realised E[M]: transmissions per data packet. *)
let tx_per_packet ~data_tx ~parity_tx =
  if data_tx <= 0 then invalid_arg "Stats.tx_per_packet: no data transmitted";
  float_of_int (data_tx + parity_tx) /. float_of_int data_tx

(* A ratio whose base may legitimately be zero on some workload (syscalls
   per datagram on a simulated run): reported as 0, with the base shown
   beside it. *)
let ratio num den = if den = 0 then 0.0 else float_of_int num /. float_of_int den

(* Metric names: a letter or digit first, then at most 63 more of
   [A-Za-z0-9_.-]. *)
let valid_name s =
  let ok c =
    (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') || c = '_'
    || c = '.' || c = '-'
  in
  let alnum c = ok c && c <> '_' && c <> '.' && c <> '-' in
  String.length s >= 1 && String.length s <= 64 && alnum s.[0] && String.for_all ok s
