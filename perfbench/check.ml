(* The output oracle: turns one library report into the benchmark's
   operations.  An operation is one (transfer, receiver) delivery; it
   fails when the receiver did not complete, was ejected, timed out, or
   got bytes that do not match the source.  Message bytes count as
   delivered only when no operation of the transfer failed. *)

module Udp_np = Rmcast.Udp_np
module Np = Rmcast.Np
module Np_aggregate = Rmcast.Np_aggregate
module Transfer = Rmcast.Transfer

type op = {
  attempted : int;
  failed : int;
  bytes : int;  (** message bytes verified at every receiver *)
  wall : float;  (** call to return, minus the configured linger *)
  tgs : int;
  data_tx : int;
  parity_tx : int;
  polls : int;
  naks_sent : int;
  naks_suppressed : int;
  problems : string list;  (** why operations failed, for the log *)
}

let distinct_receivers pairs = List.length (List.sort_uniq compare (List.map fst pairs))

let finish ~attempted ~failed ~message_bytes ~wall ~problems op =
  let failed = if problems <> [] then max 1 failed else failed in
  { op with attempted; failed; bytes = (if failed = 0 then message_bytes else 0); wall; problems }

let blank =
  {
    attempted = 0; failed = 0; bytes = 0; wall = 0.0; tgs = 0; data_tx = 0; parity_tx = 0;
    polls = 0; naks_sent = 0; naks_suppressed = 0; problems = [];
  }

(* UDP: every receiver completed, every decoded payload matched, nobody
   was ejected.  A run that hit [session_timeout] shows up here as
   receivers that did not complete — failed operations, not a short run. *)
let udp ~receivers ~message_bytes ~call_s ~linger ~session_timeout (r : Udp_np.report) =
  let problems =
    List.concat
      [
        (if r.Udp_np.completed < receivers then
           [
             Printf.sprintf "%d/%d receivers completed after %.3f s (session_timeout %g s)"
               r.Udp_np.completed receivers r.Udp_np.wall_seconds session_timeout;
           ]
         else []);
        (if r.Udp_np.completed = receivers && not r.Udp_np.verified then
           [ "decoded payloads do not match the source" ]
         else []);
        (if r.Udp_np.ejected <> [] then
           [ Printf.sprintf "%d receivers ejected" (distinct_receivers r.Udp_np.ejected) ]
         else []);
      ]
  in
  let failed =
    if problems = [] then 0
    else if r.Udp_np.completed = receivers && not r.Udp_np.verified then receivers
    else max (receivers - r.Udp_np.completed) (distinct_receivers r.Udp_np.ejected)
  in
  finish ~attempted:receivers ~failed ~message_bytes ~wall:(call_s -. linger) ~problems
    {
      blank with
      tgs = r.Udp_np.transmission_groups;
      data_tx = r.Udp_np.data_tx;
      parity_tx = r.Udp_np.parity_tx;
      polls = r.Udp_np.polls;
      naks_sent = r.Udp_np.naks_sent;
      naks_suppressed = r.Udp_np.naks_suppressed;
    }

let of_np ~receivers ~message_bytes ~call_s ~verified (r : Np.report) =
  let problems =
    List.concat
      [
        (if r.Np.receivers <> receivers then
           [ Printf.sprintf "report covers %d receivers, expected %d" r.Np.receivers receivers ]
         else []);
        (if not r.Np.delivered_intact then [ "a receiver's delivery does not match the source" ]
         else []);
        (if not verified then [ "transfer not verified" ] else []);
        (if r.Np.ejected <> [] then
           [ Printf.sprintf "%d receivers ejected" (distinct_receivers r.Np.ejected) ]
         else []);
      ]
  in
  let failed =
    if problems = [] then 0
    else if not r.Np.delivered_intact then receivers
    else distinct_receivers r.Np.ejected
  in
  finish ~attempted:receivers ~failed ~message_bytes ~wall:call_s ~problems
    {
      blank with
      tgs = r.Np.transmission_groups;
      data_tx = r.Np.data_tx;
      parity_tx = r.Np.parity_tx;
      polls = r.Np.polls;
      naks_sent = r.Np.naks_sent;
      naks_suppressed = r.Np.naks_suppressed;
    }

(* Simulated transfer through [Transfer.send]: the reassembled message
   must be intact at every receiver and nobody ejected. *)
let sim ~receivers ~message_bytes ~call_s (o : Transfer.outcome) =
  of_np ~receivers ~message_bytes ~call_s ~verified:o.Transfer.verified o.Transfer.report

(* Aggregate tier: the exact cohort intact with no ejections, and every
   receiver of the count-vector remainder complete. *)
let aggregate ~population ~message_bytes ~call_s (r : Np_aggregate.report) =
  let remainder = r.Np_aggregate.population - r.Np_aggregate.cohort in
  let problems =
    List.concat
      [
        (if r.Np_aggregate.population <> population then
           [ Printf.sprintf "population %d, expected %d" r.Np_aggregate.population population ]
         else []);
        (if not r.Np_aggregate.delivered_intact then [ "cohort delivery does not match the source" ]
         else []);
        (if r.Np_aggregate.cohort_ejected <> [] then
           [
             Printf.sprintf "%d cohort receivers ejected"
               (distinct_receivers r.Np_aggregate.cohort_ejected);
           ]
         else []);
        (if r.Np_aggregate.agg_ejected > 0 then
           [ Printf.sprintf "%d remainder receivers ejected" r.Np_aggregate.agg_ejected ]
         else []);
        (if r.Np_aggregate.agg_complete <> remainder then
           [ Printf.sprintf "%d/%d remainder receivers complete" r.Np_aggregate.agg_complete remainder ]
         else []);
      ]
  in
  let failed =
    if problems = [] then 0
    else
      (if r.Np_aggregate.delivered_intact then distinct_receivers r.Np_aggregate.cohort_ejected
       else r.Np_aggregate.cohort)
      + max 0 (remainder - r.Np_aggregate.agg_complete)
  in
  finish ~attempted:population ~failed ~message_bytes ~wall:call_s ~problems
    {
      blank with
      tgs = r.Np_aggregate.transmission_groups;
      data_tx = r.Np_aggregate.data_tx;
      parity_tx = r.Np_aggregate.parity_tx;
      polls = r.Np_aggregate.polls;
      naks_sent = r.Np_aggregate.cohort_naks_sent + r.Np_aggregate.agg_naks_sent;
      naks_suppressed = r.Np_aggregate.cohort_naks_suppressed + r.Np_aggregate.agg_naks_suppressed;
    }

(* The protocol counts a deterministic run must reproduce exactly. *)
let counts op = (op.data_tx, op.parity_tx, op.polls, op.naks_sent, op.naks_suppressed)

let counts_to_string op =
  let d, p, po, n, s = counts op in
  Printf.sprintf "data_tx=%d parity_tx=%d polls=%d naks_sent=%d naks_suppressed=%d" d p po n s
