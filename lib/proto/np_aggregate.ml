(* The aggregate tier: an ordinary {!Np.Mux} flow for the tracked cohort,
   plus the count-vector remainder attached as the flow's population hook.
   np_aggregate.mli states the model; DESIGN.md §10 spells out the
   argument.  The remainder draws only from its own split RNG stream, so
   it never perturbs the cohort's draws. *)

module Engine = Rmc_sim.Engine
module Network = Rmc_sim.Network
module Aggregate = Rmc_sim.Aggregate
module Rng = Rmc_numerics.Rng
module Sampler = Rmc_numerics.Sampler
module Recorder = Rmc_obs.Recorder

let default_cohort = 64

type report = {
  config : Np.config;
  population : int; (* total receivers: cohort + aggregate *)
  cohort : int;
  transmission_groups : int;
  data_tx : int;
  parity_tx : int;
  polls : int;
  cohort_naks_sent : int;
  cohort_naks_suppressed : int;
  agg_naks_sent : int; (* slot-occupancy estimate, incl. the virtual NAK *)
  agg_naks_suppressed : int;
  parities_encoded : int;
  packets_decoded : int;
  cohort_unnecessary : int;
  agg_unnecessary : int;
  cohort_ejected : (int * int) list;
  agg_ejected : int;
  agg_complete : int; (* aggregate receivers holding every TG at the end *)
  duration : float;
  delivered_intact : bool;
}

let transmissions_per_packet report =
  float_of_int (report.data_tx + report.parity_tx) /. float_of_int report.data_tx

(* The count-vector population model assumes an MDS code: a receiver's state
   is its reception count and any k receptions decode.  The rateless codecs
   break that premise (a coded packet is innovative only with probability
   < 1), so the aggregate tier only accepts the block codecs.  The adaptive
   controllers fall to the same axe from the other side: the remainder is a
   count-vector distribution, not a set of machines, so a mid-transfer
   retune would have to re-derive every deficit class under the new budget
   — the tier cannot interpret retunes, and says so up front. *)
let check_config (c : Np.config) =
  let context = "Np_aggregate" in
  match c.Np.codec with
  | (`Rlnc | `Lt) ->
    Rmc_core.Error.invalid_arg ~context
      "the aggregate tier models receivers by reception count, which requires an MDS \
       block codec (rse or cauchy)"
  | (`Rse | `Cauchy) when c.Np.controller <> `Static ->
    Error
      (Rmc_core.Error.msgf ~context
         "the aggregate tier holds the remainder as a count-vector population and \
          cannot interpret %s retunes; use the exact tier or --controller static"
         (Rmc_core.Profile.controller_to_string c.Np.controller))
  | `Rse | `Cauchy -> Ok ()

(* One virtual NAK timer per TG: the aggregate population's contribution to
   the current feedback round. *)
type agg_tg = {
  pop : Aggregate.t;
  mutable armed : Engine.timer option;
  mutable armed_round : int;
  mutable armed_need : int;
}

type agg_state = {
  rng : Rng.t; (* split off the flow RNG; the cohort never draws from it *)
  tgs : agg_tg array;
  config : Np.config;
  recorder : Recorder.t option;
  mutable naks_sent : int;
  mutable naks_suppressed : int;
  mutable ejected : int;
}

let record_agg agg line =
  match agg.recorder with
  | Some r -> Recorder.record_event r ~actor:"aggregate" line
  | None -> ()

let agg_cancel at =
  match at.armed with
  | Some timer ->
    Engine.cancel timer;
    at.armed <- None
  | None -> ()

(* The remainder's hook on the flow.  Every callback runs at the packet's
   arrival time, after the cohort's own arrivals of the same packet. *)
let hook mux np agg =
  let engine = Np.Mux.engine mux in
  (* The population's first NAK timer fires: feed the sender the maximum
     deficit, multicast the NAK to the cohort, and tally how many same-slot
     peers fire alongside (timers within one propagation delay of the first
     cannot be suppressed any more) versus how many armed receivers the NAK
     silences. *)
  let nak_fire ~tg =
    let at = agg.tgs.(tg) in
    let need = at.armed_need and round = at.armed_round in
    record_agg agg (Printf.sprintf "nak tg=%d need=%d round=%d" tg need round);
    let c = Aggregate.deficit_count at.pop need in
    let armed = Aggregate.missing at.pop in
    let window = Float.min 1.0 (agg.config.Np.delay /. agg.config.Np.slot) in
    let same_slot_firers =
      if c <= 1 then 0 else Sampler.binomial agg.rng ~n:(c - 1) ~p:window
    in
    let fired = 1 + same_slot_firers in
    agg.naks_sent <- agg.naks_sent + fired;
    agg.naks_suppressed <- agg.naks_suppressed + max 0 (armed - fired);
    Np.Mux.inject_nak mux np ~tg ~need ~round
  in
  {
    Np.Mux.arrival =
      (fun ~tg -> Aggregate.receive agg.tgs.(tg).pop agg.rng ~time:(Engine.now engine));
    (* A POLL (re)arms the TG's virtual NAK timer, mirroring the machine:
       slot index [max 0 (size - need)], damping uniform = minimum over the
       receivers sharing that maximum deficit. *)
    poll =
      (fun ~tg ~size ~round ->
        let at = agg.tgs.(tg) in
        agg_cancel at;
        let need = Aggregate.max_deficit at.pop in
        if need > 0 then begin
          let c = Aggregate.deficit_count at.pop need in
          let slot_index = max 0 (size - need) in
          let u = Aggregate.min_uniform agg.rng ~count:c in
          let offset = (float_of_int slot_index +. u) *. agg.config.Np.slot in
          at.armed_round <- round;
          at.armed_need <- need;
          at.armed <-
            Some
              (Engine.after engine offset (fun () ->
                   at.armed <- None;
                   nak_fire ~tg))
        end);
    exhausted =
      (fun ~tg ->
        let at = agg.tgs.(tg) in
        agg_cancel at;
        let dropped = Aggregate.eject_missing at.pop in
        if dropped > 0 then begin
          record_agg agg (Printf.sprintf "ejected tg=%d count=%d" tg dropped);
          agg.ejected <- agg.ejected + dropped
        end);
    (* Same suppression rule as the machine: an equal-or-greater need for
       the armed round cancels the virtual timer and silences every armed
       aggregate receiver. *)
    overheard =
      (fun ~tg ~need ~round ->
        let at = agg.tgs.(tg) in
        match at.armed with
        | Some _ when at.armed_round = round && need >= at.armed_need ->
          agg_cancel at;
          agg.naks_suppressed <- agg.naks_suppressed + Aggregate.missing at.pop
        | _ -> ());
  }

module Mux = struct
  type t = Np.Mux.t

  let create = Np.Mux.create
  let engine = Np.Mux.engine
  let run = Np.Mux.run

  type flow = {
    np : Np.Mux.flow;
    population : int;
    agg : agg_state option; (* None iff population = cohort *)
  }

  let add_flow mux ?(config = Np.default_config) ?(start = 0.0) ?recorder
      ?(cohort = default_cohort) ?channel ~population ~network ~rng ~data () =
    Np.validate_config config;
    Rmc_core.Error.get_exn (check_config config);
    let receivers = Network.receivers network in
    if receivers <> min cohort population then
      invalid_arg "Np_aggregate: network must cover exactly the tracked cohort";
    if population < receivers then invalid_arg "Np_aggregate: population smaller than cohort";
    if population > receivers && Option.is_none channel then
      invalid_arg "Np_aggregate: ~channel required when population > cohort";
    let np = Np.Mux.add_flow mux ~config ~start ?recorder ~network ~rng ~data () in
    (* The remainder draws from a split stream so the cohort's shared damping
       RNG sees exactly the draws Np.Mux would make; with an empty remainder
       no split happens and the streams coincide. *)
    let agg =
      match channel with
      | Some channel when population > receivers ->
        let agg_rng = Rng.split rng in
        let tg_count = (Array.length data + config.Np.k - 1) / config.Np.k in
        let tgs =
          Array.init tg_count (fun _ ->
              {
                pop =
                  Aggregate.create agg_rng ~size:(population - receivers) ~k:config.Np.k
                    ~channel ~time:start;
                armed = None;
                armed_round = 0;
                armed_need = 0;
              })
        in
        let agg =
          {
            rng = agg_rng;
            tgs;
            config;
            recorder;
            naks_sent = 0;
            naks_suppressed = 0;
            ejected = 0;
          }
        in
        Np.Mux.attach_population np (hook mux np agg);
        Some agg
      | Some _ | None -> None
    in
    { np; population; agg }

  let agg_deficits flow ~tg =
    match flow.agg with
    | None -> [| 0 |]
    | Some agg -> Aggregate.deficits agg.tgs.(tg).pop

  let complete flow =
    Np.Mux.complete flow.np
    &&
    match flow.agg with
    | None -> true
    | Some agg -> Array.for_all (fun at -> Aggregate.missing at.pop = 0) agg.tgs

  let report flow =
    let r = Np.Mux.report flow.np in
    let agg_unnecessary, agg_naks_sent, agg_naks_suppressed, agg_ejected, agg_complete =
      match flow.agg with
      | None -> (0, 0, 0, 0, 0)
      | Some agg ->
        let unnecessary =
          Array.fold_left (fun acc at -> acc + Aggregate.unnecessary at.pop) 0 agg.tgs
        in
        let remainder = flow.population - r.Np.receivers in
        let complete =
          (* A remainder receiver holds the whole transfer iff complete in
             every TG; with ejections that joint count is not recoverable
             from marginals, so report the conservative minimum. *)
          Array.fold_left (fun acc at -> min acc (Aggregate.complete at.pop)) remainder
            agg.tgs
        in
        (unnecessary, agg.naks_sent, agg.naks_suppressed, agg.ejected, complete)
    in
    {
      config = r.Np.config;
      population = flow.population;
      cohort = r.Np.receivers;
      transmission_groups = r.Np.transmission_groups;
      data_tx = r.Np.data_tx;
      parity_tx = r.Np.parity_tx;
      polls = r.Np.polls;
      cohort_naks_sent = r.Np.naks_sent;
      cohort_naks_suppressed = r.Np.naks_suppressed;
      agg_naks_sent;
      agg_naks_suppressed;
      parities_encoded = r.Np.parities_encoded;
      packets_decoded = r.Np.packets_decoded;
      cohort_unnecessary = r.Np.unnecessary_receptions;
      agg_unnecessary;
      cohort_ejected = r.Np.ejected;
      agg_ejected;
      agg_complete;
      duration = r.Np.duration;
      delivered_intact = r.Np.delivered_intact;
    }

  let started_at flow = Np.Mux.started_at flow.np
  let finished_at flow = Np.Mux.finished_at flow.np
end

let run ?(config = Np.default_config) ?(start = 0.0) ?cohort ?channel ~population ~network
    ~rng ~data () =
  let engine = Engine.create () in
  let mux = Mux.create engine in
  let flow =
    Mux.add_flow mux ~config ~start ?cohort ?channel ~population ~network ~rng ~data ()
  in
  Engine.run engine;
  { (Mux.report flow) with duration = Engine.now engine }
