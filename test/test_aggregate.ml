(* The aggregate simulation tier: tracked-cohort equivalence with the exact
   NP interpreter, distributional agreement between the tiers, and agreement
   with the closed forms of lib/analysis. *)

module Aggregate = Rmcast.Aggregate
module Tg_aggregate = Rmcast.Tg_aggregate
module Np = Rmcast.Np
module Np_aggregate = Rmcast.Np_aggregate
module Network = Rmcast.Network
module Runner = Rmcast.Runner
module Rng = Rmcast.Rng
module Stats = Rmcast.Stats
module Recorder = Rmcast.Recorder

let p = 0.01

let payloads rng ~count ~size =
  Array.init count (fun _ -> Bytes.init size (fun _ -> Char.chr (Rng.int rng 256)))

(* --- cohort equivalence ------------------------------------------------- *)

(* With population = cohort the aggregate interpreter must not merely match
   Np statistically — it must consume the same random draws in the same
   order and produce the identical event/effect streams.  Both runs below
   rebuild the same seeded inputs from scratch (networks carry RNG state,
   so they cannot be shared). *)
let equivalence_run ~receivers ~packets ~seed =
  let config = { Np.default_config with payload_size = 128 } in
  let make_inputs () =
    let rng = Rng.create ~seed () in
    let data = payloads rng ~count:packets ~size:config.Np.payload_size in
    let network = Network.independent (Rng.split rng) ~receivers ~p:0.02 in
    (data, network, Rng.split rng)
  in
  let exact_recorder = Recorder.create () in
  let exact =
    let data, network, rng = make_inputs () in
    let engine = Rmcast.Engine.create () in
    let mux = Np.Mux.create engine in
    let flow =
      Np.Mux.add_flow mux ~config ~recorder:exact_recorder ~network ~rng ~data ()
    in
    Np.Mux.run mux;
    Np.Mux.report flow
  in
  let agg_recorder = Recorder.create () in
  let agg =
    let data, network, rng = make_inputs () in
    Np_aggregate.run ~config ~cohort:receivers ~population:receivers ~network ~rng ~data
      ()
  and () =
    (* Re-run through the Mux API with a recorder to capture the streams. *)
    let data, network, rng = make_inputs () in
    let engine = Rmcast.Engine.create () in
    let mux = Np_aggregate.Mux.create engine in
    let flow =
      Np_aggregate.Mux.add_flow mux ~config ~recorder:agg_recorder ~cohort:receivers
        ~population:receivers ~network ~rng ~data ()
    in
    Np_aggregate.Mux.run mux;
    Alcotest.(check bool) "mux flow complete" true (Np_aggregate.Mux.complete flow)
  in
  (exact, exact_recorder, agg, agg_recorder)

let test_cohort_event_identical () =
  let exact, exact_rec, agg, agg_rec =
    equivalence_run ~receivers:64 ~packets:60 ~seed:42
  in
  Alcotest.(check bool) "exact intact" true exact.Np.delivered_intact;
  Alcotest.(check bool) "aggregate intact" true agg.Np_aggregate.delivered_intact;
  Alcotest.(check int) "data_tx" exact.Np.data_tx agg.Np_aggregate.data_tx;
  Alcotest.(check int) "parity_tx" exact.Np.parity_tx agg.Np_aggregate.parity_tx;
  Alcotest.(check int) "polls" exact.Np.polls agg.Np_aggregate.polls;
  Alcotest.(check int) "naks_sent" exact.Np.naks_sent agg.Np_aggregate.cohort_naks_sent;
  Alcotest.(check int) "naks_suppressed" exact.Np.naks_suppressed
    agg.Np_aggregate.cohort_naks_suppressed;
  Alcotest.(check int) "decoded" exact.Np.packets_decoded
    agg.Np_aggregate.packets_decoded;
  let exact_entries = Recorder.entries exact_rec in
  let agg_entries = Recorder.entries agg_rec in
  Alcotest.(check int) "stream length" (List.length exact_entries)
    (List.length agg_entries);
  List.iter2
    (fun (a : Recorder.entry) (b : Recorder.entry) ->
      Alcotest.(check string) "actor" a.Recorder.actor b.Recorder.actor;
      Alcotest.(check bool) "kind" true (a.Recorder.kind = b.Recorder.kind);
      Alcotest.(check string) "body" a.Recorder.body b.Recorder.body)
    exact_entries agg_entries

(* A remainder behind the cohort must not perturb the transfer's liveness:
   everyone (tracked and aggregate) finishes, and the remainder forces at
   least as much repair as the cohort alone. *)
let test_remainder_completes () =
  let config = { Np.default_config with payload_size = 128 } in
  let rng = Rng.create ~seed:7 () in
  let data = payloads rng ~count:60 ~size:config.Np.payload_size in
  let network = Network.independent (Rng.split rng) ~receivers:32 ~p in
  let report =
    Np_aggregate.run ~config ~cohort:32 ~channel:(Aggregate.bernoulli ~p)
      ~population:20_000 ~network ~rng:(Rng.split rng) ~data ()
  in
  Alcotest.(check bool) "intact" true report.Np_aggregate.delivered_intact;
  Alcotest.(check int) "population" 20_000 report.Np_aggregate.population;
  Alcotest.(check int) "cohort" 32 report.Np_aggregate.cohort;
  Alcotest.(check int) "nobody ejected" 0 report.Np_aggregate.agg_ejected;
  Alcotest.(check int) "remainder all complete" (20_000 - 32)
    report.Np_aggregate.agg_complete;
  (* With 20k receivers at p = 1%, every TG sees a loss: repair must have
     happened, and the population must have spoken. *)
  Alcotest.(check bool) "parities flowed" true (report.Np_aggregate.parity_tx > 0);
  Alcotest.(check bool) "aggregate NAKed" true (report.Np_aggregate.agg_naks_sent > 0)

(* The remainder's draw order, pinned.  The cohort-equivalence test above
   only covers an empty remainder; these runs put an aggregate remainder
   behind a cohort of 32 and assert every report field and a digest of the
   whole capture — the ["aggregate"] actor's virtual NAK and ejection lines
   included — as literals.  The first row is the large-population regime
   (the remainder always NAKs first); the second has a remainder no larger
   than the cohort and a budget small enough that cohort NAKs are overheard
   by the remainder and both sides eject.  Any change to when the
   remainder's hooks run, or in what order they draw, moves a digest. *)
type golden = {
  g_population : int;
  g_h : int;
  g_p : float;
  g_parity_tx : int;
  g_polls : int;
  g_cohort_naks : int * int; (* sent, suppressed *)
  g_agg_naks : int * int;
  g_decoded : int;
  g_unnecessary : int * int; (* cohort, aggregate *)
  g_cohort_ejected : (int * int) list;
  g_agg_ejected : int;
  g_agg_complete : int;
  g_duration : string; (* %h *)
  g_intact : bool;
  g_entries : int;
  g_aggregate_lines : int;
  g_digest : string;
}

let goldens =
  [
    {
      g_population = 20_000;
      g_h = 40;
      g_p = 0.01;
      g_parity_tx = 11;
      g_polls = 7;
      g_cohort_naks = (0, 14);
      g_agg_naks = (14, 10834);
      g_decoded = 16;
      g_unnecessary = (335, 205564);
      g_cohort_ejected = [];
      g_agg_ejected = 0;
      g_agg_complete = 19_968;
      g_duration = "0x1.0a0f513ad0dfep+1";
      g_intact = true;
      g_entries = 2931;
      g_aggregate_lines = 4;
      g_digest = "6aa40e8510bc9b785b9ed79b2b48d787";
    };
    {
      g_population = 64;
      g_h = 3;
      g_p = 0.08;
      g_parity_tx = 9;
      g_polls = 6;
      g_cohort_naks = (3, 75);
      g_agg_naks = (4, 81);
      g_decoded = 103;
      g_unnecessary = (151, 135);
      g_cohort_ejected = [ (11, 0); (23, 0); (4, 1); (17, 1); (4, 2); (10, 2) ];
      g_agg_ejected = 9;
      g_agg_complete = 32;
      g_duration = "0x1.0396864fc02b4p+1";
      g_intact = false;
      g_entries = 3037;
      g_aggregate_lines = 7;
      g_digest = "aafeaaecda3d503ce4b300e295a2f06f";
    };
  ]

let test_remainder_golden () =
  List.iter
    (fun g ->
      let label = Printf.sprintf "population %d: %s" g.g_population in
      let config = { Np.default_config with payload_size = 128; h = g.g_h } in
      let rng = Rng.create ~seed:7 () in
      let data = payloads rng ~count:60 ~size:config.Np.payload_size in
      let network = Network.independent (Rng.split rng) ~receivers:32 ~p:g.g_p in
      let recorder = Recorder.create () in
      let mux = Np_aggregate.Mux.create (Rmcast.Engine.create ()) in
      let flow =
        Np_aggregate.Mux.add_flow mux ~config ~recorder ~cohort:32
          ~channel:(Aggregate.bernoulli ~p:g.g_p) ~population:g.g_population ~network
          ~rng:(Rng.split rng) ~data ()
      in
      Np_aggregate.Mux.run mux;
      let r = Np_aggregate.Mux.report flow in
      let capture = Buffer.create 65536 in
      let aggregate_lines = ref 0 in
      List.iter
        (fun (e : Recorder.entry) ->
          if e.Recorder.actor = "aggregate" then incr aggregate_lines;
          Buffer.add_string capture
            (Printf.sprintf "%c %s %s\n"
               (match e.Recorder.kind with Recorder.Event -> 'E' | Recorder.Effect -> 'X')
               e.Recorder.actor e.Recorder.body))
        (Recorder.entries recorder);
      let open Np_aggregate in
      let int name = Alcotest.(check int) (label name) in
      Alcotest.(check bool) (label "config") true (r.config = config);
      int "population" g.g_population r.population;
      int "cohort" 32 r.cohort;
      int "transmission_groups" 3 r.transmission_groups;
      int "data_tx" 60 r.data_tx;
      int "parity_tx" g.g_parity_tx r.parity_tx;
      int "polls" g.g_polls r.polls;
      int "cohort_naks_sent" (fst g.g_cohort_naks) r.cohort_naks_sent;
      int "cohort_naks_suppressed" (snd g.g_cohort_naks) r.cohort_naks_suppressed;
      int "agg_naks_sent" (fst g.g_agg_naks) r.agg_naks_sent;
      int "agg_naks_suppressed" (snd g.g_agg_naks) r.agg_naks_suppressed;
      int "parities_encoded" g.g_parity_tx r.parities_encoded;
      int "packets_decoded" g.g_decoded r.packets_decoded;
      int "cohort_unnecessary" (fst g.g_unnecessary) r.cohort_unnecessary;
      int "agg_unnecessary" (snd g.g_unnecessary) r.agg_unnecessary;
      Alcotest.(check (list (pair int int)))
        (label "cohort_ejected") g.g_cohort_ejected r.cohort_ejected;
      int "agg_ejected" g.g_agg_ejected r.agg_ejected;
      int "agg_complete" g.g_agg_complete r.agg_complete;
      Alcotest.(check string) (label "duration") g.g_duration (Printf.sprintf "%h" r.duration);
      Alcotest.(check bool) (label "delivered_intact") g.g_intact r.delivered_intact;
      int "capture entries" g.g_entries (Recorder.length recorder);
      int "aggregate lines" g.g_aggregate_lines !aggregate_lines;
      Alcotest.(check string) (label "capture digest") g.g_digest
        (Digest.to_hex (Digest.string (Buffer.contents capture))))
    goldens

(* --- tier-vs-analysis --------------------------------------------------- *)

let test_extra_parities_expectation () =
  List.iter
    (fun receivers ->
      let sampler = Aggregate.Extra_parities.create ~k:7 ~a:0 ~p ~receivers in
      let analytic =
        Rmcast.Integrated.expected_extra ~k:7 ~a:0
          ~population:(Rmcast.Receivers.homogeneous ~p ~count:receivers)
      in
      let got = Aggregate.Extra_parities.expected sampler in
      Alcotest.(check bool)
        (Printf.sprintf "E[L] R=%d: %.6f vs %.6f" receivers got analytic)
        true
        (Float.abs (got -. analytic) <= 1e-3 *. Float.max 1.0 analytic))
    [ 100; 10_000; 1_000_000 ]

let test_open_loop_matches_eq6 () =
  let receivers = 100_000 and k = 7 and reps = 2000 in
  let rng = Rng.create ~seed:11 () in
  let est =
    Tg_aggregate.estimate rng ~receivers ~channel:(Aggregate.bernoulli ~p) ~k
      ~scheme:(Runner.Integrated_open_loop { a = 0 }) ~reps ()
  in
  let bound =
    Rmcast.Integrated.expected_transmissions_unbounded ~k
      ~population:(Rmcast.Receivers.homogeneous ~p ~count:receivers) ()
  in
  let mean = Stats.Accumulator.mean est.Runner.transmissions_per_packet in
  let se = Stats.Accumulator.std_error est.Runner.transmissions_per_packet in
  Alcotest.(check bool)
    (Printf.sprintf "E[M] %.4f vs eq.6 %.4f (se %.4f)" mean bound se)
    true
    (Float.abs (mean -. bound) <= 3.5 *. se)

let test_nak_rounds_straddle_eq6 () =
  (* Eq. 6 is a lower bound for NAK rounds (round-granular batches can
     overshoot L by at most the last batch) — the mean must sit at or just
     above it. *)
  let receivers = 100_000 and k = 7 and reps = 1000 in
  let rng = Rng.create ~seed:12 () in
  let est =
    Tg_aggregate.estimate rng ~receivers ~channel:(Aggregate.bernoulli ~p) ~k
      ~scheme:(Runner.Integrated_nak { a = 0 }) ~reps ()
  in
  let bound =
    Rmcast.Integrated.expected_transmissions_unbounded ~k
      ~population:(Rmcast.Receivers.homogeneous ~p ~count:receivers) ()
  in
  let mean = Stats.Accumulator.mean est.Runner.transmissions_per_packet in
  let se = Stats.Accumulator.std_error est.Runner.transmissions_per_packet in
  Alcotest.(check bool)
    (Printf.sprintf "E[M] %.4f vs bound %.4f" mean bound)
    true
    (mean >= bound -. (3.5 *. se) && mean <= (1.05 *. bound) +. (3.5 *. se))

(* --- tier-vs-tier ------------------------------------------------------- *)

let combined_sigma a b =
  sqrt ((Stats.Accumulator.std_error a ** 2.0) +. (Stats.Accumulator.std_error b ** 2.0))

let check_tiers_agree name exact_acc agg_acc =
  let me = Stats.Accumulator.mean exact_acc and ma = Stats.Accumulator.mean agg_acc in
  let sigma = combined_sigma exact_acc agg_acc in
  Alcotest.(check bool)
    (Printf.sprintf "%s: exact %.4f vs aggregate %.4f (sigma %.4f)" name me ma sigma)
    true
    (Float.abs (me -. ma) <= 3.5 *. sigma)

let test_tiers_agree_bernoulli () =
  let receivers = 256 and k = 7 and reps = 600 in
  let rng = Rng.create ~seed:21 () in
  let network = Network.independent (Rng.split rng) ~receivers ~p in
  let exact =
    Runner.estimate network ~k ~scheme:(Runner.Integrated_nak { a = 0 })
      ~timing:Rmcast.Timing.instantaneous ~reps ()
  in
  let agg =
    Tg_aggregate.estimate (Rng.split rng) ~receivers ~channel:(Aggregate.bernoulli ~p) ~k
      ~scheme:(Runner.Integrated_nak { a = 0 }) ~reps ()
  in
  check_tiers_agree "E[M]" exact.Runner.transmissions_per_packet
    agg.Runner.transmissions_per_packet;
  check_tiers_agree "rounds" exact.Runner.rounds agg.Runner.rounds;
  check_tiers_agree "unnecessary" exact.Runner.unnecessary_per_receiver
    agg.Runner.unnecessary_per_receiver

let test_tiers_agree_bursty () =
  let receivers = 128 and k = 7 and reps = 400 in
  let mean_burst = 2.0 and send_rate = 25.0 in
  let rng = Rng.create ~seed:22 () in
  let network =
    Network.temporal (Rng.split rng) ~receivers ~make:(fun rng ->
        Rmcast.Loss.markov2 rng ~p ~mean_burst ~send_rate)
  in
  let exact =
    Runner.estimate network ~k ~scheme:(Runner.Integrated_nak { a = 0 })
      ~timing:Rmcast.Timing.paper_burst ~reps ()
  in
  let agg =
    Tg_aggregate.estimate (Rng.split rng) ~receivers
      ~channel:(Aggregate.bursty ~p ~mean_burst ~send_rate) ~k
      ~scheme:(Runner.Integrated_nak { a = 0 }) ~timing:Rmcast.Timing.paper_burst ~reps
      ()
  in
  check_tiers_agree "E[M] (bursty)" exact.Runner.transmissions_per_packet
    agg.Runner.transmissions_per_packet;
  check_tiers_agree "rounds (bursty)" exact.Runner.rounds agg.Runner.rounds

let test_volley_matches_thinning () =
  (* One multinomial split must be distributed like per-packet thinning:
     compare mean survivors-missing and mean max-deficit over many draws. *)
  let receivers = 2000 and k = 7 and a = 2 and reps = 2000 in
  let stat_of run =
    let missing = Stats.Accumulator.create () in
    let deficit = Stats.Accumulator.create () in
    for _ = 1 to reps do
      let pop = run () in
      Stats.Accumulator.add missing (float_of_int (Aggregate.missing pop));
      Stats.Accumulator.add deficit (float_of_int (Aggregate.max_deficit pop))
    done;
    (missing, deficit)
  in
  let rng1 = Rng.create ~seed:31 () in
  let volley_missing, volley_deficit =
    stat_of (fun () ->
        let pop =
          Aggregate.create rng1 ~size:receivers ~k ~channel:(Aggregate.bernoulli ~p)
            ~time:0.0
        in
        Aggregate.bernoulli_volley pop rng1 ~packets:(k + a);
        pop)
  in
  let rng2 = Rng.create ~seed:32 () in
  let packet_missing, packet_deficit =
    stat_of (fun () ->
        let pop =
          Aggregate.create rng2 ~size:receivers ~k ~channel:(Aggregate.bernoulli ~p)
            ~time:0.0
        in
        for i = 1 to k + a do
          Aggregate.receive pop rng2 ~time:(float_of_int i)
        done;
        pop)
  in
  check_tiers_agree "post-volley missing" volley_missing packet_missing;
  check_tiers_agree "post-volley max deficit" volley_deficit packet_deficit

(* --- infrastructure ----------------------------------------------------- *)

let test_parallel_map () =
  let squares = Rmcast.Parallel.map 100 (fun i -> i * i) in
  Alcotest.(check (array int)) "squares" (Array.init 100 (fun i -> i * i)) squares;
  Alcotest.(check (array int)) "empty" [||] (Rmcast.Parallel.map 0 (fun i -> i));
  Alcotest.check_raises "exception propagates" Exit (fun () ->
      ignore (Rmcast.Parallel.map 4 (fun i -> if i = 2 then raise Exit else i)))

let test_log_factorial_memo () =
  (* Grown once, then reused: repeated large-argument calls must not
     re-derive the table, and the memo must agree with log_gamma. *)
  ignore (Rmcast.Special.log_factorial 100_000 : float);
  let extensions = Rmcast.Special.log_factorial_extensions () in
  for n = 0 to 1000 do
    ignore (Rmcast.Special.log_factorial (n * 100) : float)
  done;
  Alcotest.(check int) "no re-extension" extensions
    (Rmcast.Special.log_factorial_extensions ());
  List.iter
    (fun n ->
      let memo = Rmcast.Special.log_factorial n in
      let gamma = Rmcast.Special.log_gamma (float_of_int n +. 1.0) in
      Alcotest.(check bool)
        (Printf.sprintf "log %d! memo %.6f vs gamma %.6f" n memo gamma)
        true
        (Float.abs (memo -. gamma) <= 1e-9 *. Float.max 1.0 (Float.abs gamma)))
    [ 0; 1; 2; 10; 1000; 99_999 ]

let suite =
  [
    Alcotest.test_case "cohort = population is event-identical to Np" `Quick
      test_cohort_event_identical;
    Alcotest.test_case "aggregate remainder completes the transfer" `Quick
      test_remainder_completes;
    Alcotest.test_case "E[L] sampler matches analysis (eq. 5)" `Quick
      test_extra_parities_expectation;
    Alcotest.test_case "open-loop E[M] matches eq. 6 (3.5 sigma)" `Quick
      test_open_loop_matches_eq6;
    Alcotest.test_case "NAK-rounds E[M] straddles eq. 6" `Quick
      test_nak_rounds_straddle_eq6;
    Alcotest.test_case "tiers agree, Bernoulli (3.5 sigma)" `Quick
      test_tiers_agree_bernoulli;
    Alcotest.test_case "tiers agree, bursty Markov (3.5 sigma)" `Quick
      test_tiers_agree_bursty;
    Alcotest.test_case "volley split = per-packet thinning" `Quick
      test_volley_matches_thinning;
    Alcotest.test_case "Parallel.map" `Quick test_parallel_map;
    Alcotest.test_case "log-factorial memo grows once" `Quick test_log_factorial_memo;
    Alcotest.test_case "remainder golden: report fields and capture digest" `Quick
      test_remainder_golden;
  ]
