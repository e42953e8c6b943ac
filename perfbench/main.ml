(* End-to-end benchmark of protocol NP: what it costs to deliver a message
   reliably to R receivers, measured through the public API.

   usage: main.exe --workload NAME --seed N --seconds S --trace 0|1

   Every input (payload bytes, loss seeds, simulator RNGs) is derived from
   --seed; the library only ever sees generated inputs.  Each run checks
   every receiver's output (see [Check]) and prints every metric by name
   with its unit; the last line of standard output is one JSON object.

   --trace 0 measures the end-to-end metrics for --seconds seconds.
   --trace 1 is the separate traced run: spans around every call the
   benchmark makes into the library, a [Recorder] capture re-driven
   through the rse, wire and np_machine layers ([Redrive]), and a
   per-layer table whose residual is whatever CPU those layers do not
   account for. *)

module R = Rmcast
open Perfbench

let now = Unix.gettimeofday

let cpu () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* --- measured calls ----------------------------------------------------- *)

type cost = { call_s : float; cpu_s : float; minor_words : float; major_collections : int }

(* Wall time, process CPU and GC work of one library call — and nothing
   else: inputs are generated before, reports checked after. *)
let measured f =
  let g0 = Gc.quick_stat () in
  let c0 = cpu () and t0 = now () in
  let v = f () in
  let t1 = now () and c1 = cpu () in
  let g1 = Gc.quick_stat () in
  ( v,
    {
      call_s = t1 -. t0;
      cpu_s = c1 -. c0;
      minor_words = g1.Gc.minor_words -. g0.Gc.minor_words;
      major_collections = g1.Gc.major_collections - g0.Gc.major_collections;
    } )

(* Transport counters of one UDP session; all zero on the simulator. *)
type io = {
  datagrams_tx : int;
  datagrams_rx : int;
  syscalls_tx : int;
  syscalls_rx : int;
  timer_fires : int;
  overflow_allocs : int;
}

let no_io =
  {
    datagrams_tx = 0; datagrams_rx = 0; syscalls_tx = 0; syscalls_rx = 0; timer_fires = 0;
    overflow_allocs = 0;
  }

let io_of_metrics m =
  let c = R.Metrics.get m in
  {
    datagrams_tx = c "udp.datagrams_tx";
    datagrams_rx = c "udp.datagrams_rx";
    syscalls_tx = c "udp.syscalls_tx";
    syscalls_rx = c "udp.syscalls_rx";
    timer_fires = c "reactor.timer_fires";
    overflow_allocs = int_of_float (R.Metrics.get_gauge m "pool.overflow_allocs");
  }

type run = { check : Check.op; cost : cost; io : io }

(* Several operations seen as one (the traced shape of udp_small). *)
let sum_runs runs =
  let sum f = List.fold_left (fun n r -> n + f r) 0 runs in
  let sumf f = List.fold_left (fun n r -> n +. f r) 0.0 runs in
  {
    check =
      {
        Check.attempted = sum (fun r -> r.check.Check.attempted);
        failed = sum (fun r -> r.check.Check.failed);
        bytes = sum (fun r -> r.check.Check.bytes);
        wall = sumf (fun r -> r.check.Check.wall);
        tgs = sum (fun r -> r.check.Check.tgs);
        data_tx = sum (fun r -> r.check.Check.data_tx);
        parity_tx = sum (fun r -> r.check.Check.parity_tx);
        polls = sum (fun r -> r.check.Check.polls);
        naks_sent = sum (fun r -> r.check.Check.naks_sent);
        naks_suppressed = sum (fun r -> r.check.Check.naks_suppressed);
        problems = List.concat_map (fun r -> r.check.Check.problems) runs;
      };
    cost =
      {
        call_s = sumf (fun r -> r.cost.call_s);
        cpu_s = sumf (fun r -> r.cost.cpu_s);
        minor_words = sumf (fun r -> r.cost.minor_words);
        major_collections = sum (fun r -> r.cost.major_collections);
      };
    io =
      {
        datagrams_tx = sum (fun r -> r.io.datagrams_tx);
        datagrams_rx = sum (fun r -> r.io.datagrams_rx);
        syscalls_tx = sum (fun r -> r.io.syscalls_tx);
        syscalls_rx = sum (fun r -> r.io.syscalls_rx);
        timer_fires = sum (fun r -> r.io.timer_fires);
        overflow_allocs = sum (fun r -> r.io.overflow_allocs);
      };
  }

(* --- inputs ------------------------------------------------------------- *)

let random_bytes rng n =
  let b = Bytes.create n in
  let i = ref 0 in
  while !i + 8 <= n do
    Bytes.set_int64_le b !i (R.Rng.bits64 rng);
    i := !i + 8
  done;
  while !i < n do
    Bytes.set b !i (Char.chr (R.Rng.int rng 256));
    incr i
  done;
  b

let payloads rng ~count ~size = Array.init count (fun _ -> random_bytes rng size)
let message rng bytes = Bytes.unsafe_to_string (random_bytes rng bytes)

(* Stream ids keep the seeds of different inputs of one workload apart. *)
let seed_of ~seed parts = R.Rng.derive_seed seed (Array.of_list parts)

(* --- workloads ---------------------------------------------------------- *)

type env = {
  op : int -> run;  (** the i-th timed operation *)
  min_ops : int;
  deterministic : bool;  (** same seed, same protocol counts *)
  notes : string list;  (** parameters recorded in the output *)
  (* The traced run. *)
  trace_label : string;  (** how the traced shape differs from the timed one *)
  trace_op : R.Recorder.t option -> run * Redrive.capture list;
  session_probe : unit -> float;  (** transport.session_s, one sample *)
  extra : Span.t -> run -> (string * float * string * string) list;
      (** workload-specific table rows: name, value, unit, base *)
}

type workload = { name : string; prepare : seed:int -> env }

let udp_profile ~payload_size = { R.Profile.default_udp with R.Profile.payload_size }
let linger = R.Udp_np.default_config.R.Udp_np.linger

let udp_config ~payload_size ~session_timeout =
  R.Udp_np.config_of_profile ~linger ~session_timeout (udp_profile ~payload_size)

let machine_config (c : R.Udp_np.config) =
  {
    R.Np_machine.k = c.R.Udp_np.k;
    h = c.R.Udp_np.h;
    proactive = c.R.Udp_np.proactive;
    pre_encode = false;
    slot = c.R.Udp_np.slot;
    codec = c.R.Udp_np.codec;
  }

let np_machine_config (c : R.Np.config) =
  {
    R.Np_machine.k = c.R.Np.k;
    h = c.R.Np.h;
    proactive = c.R.Np.proactive;
    pre_encode = c.R.Np.pre_encode;
    slot = c.R.Np.slot;
    codec = c.R.Np.codec;
  }

(* What the re-drive needs from a traced operation (nothing when untraced). *)
let capture ~config ~data ~receivers ~decode_per_delivery recorder =
  Option.to_list
    (Option.map
       (fun recorder -> { Redrive.recorder; config; data; receivers; decode_per_delivery })
       recorder)

(* One run_local session, checked; [recorder] only on the traced run. *)
let udp_session ?recorder ~config ~transport ~receivers ~loss ~seed data =
  let metrics = R.Metrics.create () in
  let result, cost =
    measured (fun () ->
        R.Udp_np.run_local ~config ~metrics ?recorder ~transport ~receivers ~loss ~seed ~data ())
  in
  let message_bytes = Array.fold_left (fun n b -> n + Bytes.length b) 0 data in
  let check =
    match result with
    | Ok report ->
      Check.udp ~receivers ~message_bytes ~call_s:cost.call_s ~linger
        ~session_timeout:config.R.Udp_np.session_timeout report
    | Error e ->
      {
        Check.blank with
        attempted = receivers;
        failed = receivers;
        wall = cost.call_s -. linger;
        problems = [ R.Error.to_string e ];
      }
  in
  { check; cost; io = io_of_metrics metrics }

(* A 1-packet lossless session at the workload's R and transport: the
   per-session set-up and tear-down every transfer pays. *)
let udp_session_probe ~config ~transport ~receivers ~seed () =
  let data = [| Bytes.make config.R.Udp_np.payload_size 'p' |] in
  let r = udp_session ~config ~transport ~receivers ~loss:0.0 ~seed data in
  if r.check.Check.failed > 0 then failwith "transport.session probe failed";
  r.check.Check.wall

(* udp_bulk — why: the throughput path.  Back-to-back 1 MiB transfers
   over loopback with unicast fan-out to 16 receivers: the pacer, the sendmmsg
   fan-out (each frame to 16 destinations), the recvmmsg drain and the
   reactor do most of the work; the codec does little (about 9% of packets
   are parity, and systematic decode runs only on loss). *)
let udp_bulk_packets = 1024

let udp_bulk ~seed =
  let receivers = 16 and payload_size = 1024 and loss = 0.01 in
  let spacing = R.Profile.default_udp.R.Profile.pacing in
  let timeout packets = 5.0 +. (10.0 *. float_of_int packets *. spacing) in
  let config = udp_config ~payload_size ~session_timeout:(timeout udp_bulk_packets) in
  let rng = R.Rng.create ~seed:(seed_of ~seed [ 1; 0 ]) () in
  let data = payloads rng ~count:udp_bulk_packets ~size:payload_size in
  let session ?recorder i data =
    udp_session ?recorder ~config ~transport:`Unicast ~receivers ~loss
      ~seed:(seed_of ~seed [ 1; 1; i ]) data
  in
  (* Warm-up: sockets, codec tables, heap. *)
  ignore (session (-1) (Array.sub data 0 64));
  {
    op = (fun i -> session i data);
    min_ops = 2;
    deterministic = false;
    notes =
      [
        Printf.sprintf
          "udp_bulk: %d x %d B packets (%.3f MB) per transfer, R=%d unicast fan-out, %g%% \
           Bernoulli reception loss, rse k=%d h=%d, pacing %g s, slot %g s"
          udp_bulk_packets payload_size
          (Stats.mb (udp_bulk_packets * payload_size))
          receivers (100.0 *. loss) config.R.Udp_np.k config.R.Udp_np.h spacing config.R.Udp_np.slot;
        Printf.sprintf "udp_bulk: session_timeout %g s, linger %g s (subtracted from every wall time)"
          config.R.Udp_np.session_timeout linger;
      ];
    trace_label = "traced: one transfer of the timed shape";
    trace_op =
      (fun recorder ->
        ( session ?recorder 1_000_000 data,
          capture ~config:(machine_config config) ~data ~receivers ~decode_per_delivery:true recorder ));
    session_probe =
      udp_session_probe ~config ~transport:`Unicast ~receivers ~seed:(seed_of ~seed [ 1; 2 ]);
    extra = (fun _ _ -> []);
  }

(* udp_small — why: at the smallest packets per-packet cost dominates.  A
   closed loop with one caller sends back-to-back 8 KiB messages of 128 B
   payloads; each message is a fresh session to 64 receivers over real IP
   multicast (kernel fan-out) with 2% loss, so every message sets up and
   tears down 129 sockets, and NAK slotting and suppression among 64
   receivers set the latency.  Send fan-out and the codec do little. *)
let udp_small_trace_messages = 8

let udp_small ~seed =
  let receivers = 64 and payload_size = 128 and message_bytes = 8192 and loss = 0.02 in
  let config = udp_config ~payload_size ~session_timeout:10.0 in
  if not (R.Udp_multicast.is_available ()) then
    failwith
      "udp_small needs IP multicast over loopback, which this host does not route; every \
       operation counts as failed (no unicast fallback: that would be another workload)";
  let count = message_bytes / payload_size in
  let data_of i =
    payloads (R.Rng.create ~seed:(seed_of ~seed [ 2; 0; i ]) ()) ~count ~size:payload_size
  in
  let session ?recorder i =
    let data = data_of i in
    ( udp_session ?recorder ~config ~transport:`Multicast ~receivers ~loss
        ~seed:(seed_of ~seed [ 2; 1; i ]) data,
      data )
  in
  ignore (session (-1));
  {
    op = (fun i -> fst (session i));
    min_ops = 20;
    deterministic = false;
    notes =
      [
        Printf.sprintf
          "udp_small: closed loop, 1 caller, %d B messages of %d x %d B payloads, one \
           run_local session each, R=%d IP multicast, %g%% Bernoulli loss, rse k=%d h=%d"
          message_bytes count payload_size receivers (100.0 *. loss) config.R.Udp_np.k
          config.R.Udp_np.h;
        Printf.sprintf "udp_small: session_timeout %g s, linger %g s (subtracted from every wall time)"
          config.R.Udp_np.session_timeout linger;
      ];
    trace_label = Printf.sprintf "traced: %d messages, full size" udp_small_trace_messages;
    trace_op =
      (fun recorder_opt ->
        let runs =
          List.init udp_small_trace_messages (fun j ->
              let recorder = Option.map (fun _ -> R.Recorder.create ()) recorder_opt in
              let r, data = session ?recorder (1_000_000 + j) in
              ( r,
                capture ~config:(machine_config config) ~data ~receivers ~decode_per_delivery:true
                  recorder ))
        in
        (sum_runs (List.map fst runs), List.concat_map snd runs));
    session_probe =
      udp_session_probe ~config ~transport:`Multicast ~receivers ~seed:(seed_of ~seed [ 2; 2 ]);
    extra = (fun _ _ -> []);
  }

(* --- simulated workloads ------------------------------------------------- *)

let sim_p = 0.01
let sim_burst = 2.0

let sim_profile codec =
  { R.Profile.default with R.Profile.k = 20; h = 40; payload_size = 1024; codec }

let send_rate (p : R.Profile.t) = 1.0 /. p.R.Profile.pacing

(* Gilbert loss: Loss.markov2 per receiver, independent across receivers. *)
let bursty_network ~seed ~receivers ~send_rate =
  R.Network.temporal (R.Rng.create ~seed ()) ~receivers ~make:(fun rng ->
      R.Loss.markov2 rng ~p:sim_p ~mean_burst:sim_burst ~send_rate)

(* The simulated workloads draw fresh loss seeds for every transfer, so one
   run averages over many channel realisations, except that the first
   transfer runs twice: the core is deterministic, and the two runs must
   report identical protocol counts. *)
let same_seed_pair i = max 0 (i - 1)

let failed_run ~attempted ~call_s problem =
  {
    check =
      { Check.blank with Check.attempted; failed = attempted; wall = call_s; problems = [ problem ] };
    cost = { call_s; cpu_s = 0.0; minor_words = 0.0; major_collections = 0 };
    io = no_io;
  }

(* sim_exact — why: no sockets.  1000 exact receiver machines, the wire
   round-trip per transmission and the RLNC decoder (which eliminates on
   every packet it receives) do the work.  The UDP workloads use RSE, so
   an RLNC-only change is predicted flat there. *)
let sim_exact_receivers = 1000
let sim_exact_trace_receivers = 64
let sim_exact_bytes = 131_072

let sim_exact ~seed =
  let profile = sim_profile `Rlnc in
  let rate = send_rate profile in
  let msg = message (R.Rng.create ~seed:(seed_of ~seed [ 3; 0 ]) ()) sim_exact_bytes in
  let send ?(i = 0) ~receivers msg =
    let network = bursty_network ~seed:(seed_of ~seed [ 3; 1; i ]) ~receivers ~send_rate:rate in
    let rng = R.Rng.create ~seed:(seed_of ~seed [ 3; 2; i ]) () in
    let outcome, cost = measured (fun () -> R.Transfer.send ~profile ~network ~rng msg) in
    match outcome with
    | Ok o ->
      {
        check = Check.sim ~receivers ~message_bytes:(String.length msg) ~call_s:cost.call_s o;
        cost;
        io = no_io;
      }
    | Error e -> failed_run ~attempted:receivers ~call_s:cost.call_s (R.Error.to_string e)
  in
  ignore (send ~receivers:sim_exact_receivers (String.sub msg 0 50_000));
  let config = R.Np.config_of_profile profile in
  let data = R.Transfer.packetize ~payload_size:profile.R.Profile.payload_size msg in
  {
    op = (fun i -> send ~i:(same_seed_pair i) ~receivers:sim_exact_receivers msg);
    min_ops = 2;
    deterministic = true;
    notes =
      [
        Printf.sprintf
          "sim_exact: %d B messages via Transfer.send (Np.Mux), R=%d exact machines, \
           Loss.markov2 p=%g mean burst %g at %g pkt/s, rlnc k=%d h=%d, payload %d B"
          sim_exact_bytes sim_exact_receivers sim_p sim_burst rate profile.R.Profile.k
          profile.R.Profile.h profile.R.Profile.payload_size;
      ];
    trace_label =
      Printf.sprintf
        "traced: R=%d (timed: R=%d) through Np.Mux with a Recorder -- a full capture hex-encodes \
         every payload per receiver; same message, channel and seeds"
        sim_exact_trace_receivers sim_exact_receivers;
    trace_op =
      (fun recorder ->
        let receivers = sim_exact_trace_receivers in
        let network = bursty_network ~seed:(seed_of ~seed [ 3; 1; 0 ]) ~receivers ~send_rate:rate in
        let rng = R.Rng.create ~seed:(seed_of ~seed [ 3; 2; 0 ]) () in
        let report, cost =
          measured (fun () ->
              let mux = R.Np.Mux.create (R.Engine.create ()) in
              let flow = R.Np.Mux.add_flow mux ~config ?recorder ~network ~rng ~data () in
              R.Np.Mux.run mux;
              R.Np.Mux.report flow)
        in
        let verified = report.R.Np.delivered_intact && report.R.Np.ejected = [] in
        ( {
            check =
              Check.of_np ~receivers ~message_bytes:(String.length msg) ~call_s:cost.call_s ~verified
                report;
            cost;
            io = no_io;
          },
          capture ~config:(np_machine_config config) ~data ~receivers ~decode_per_delivery:false
            recorder ));
    (* The simulator's session cost: building the R-receiver network and
       machines around a 1-packet lossless transfer. *)
    session_probe =
      (fun () ->
        let r, cost =
          measured (fun () ->
              let network =
                R.Network.independent (R.Rng.create ~seed ()) ~receivers:sim_exact_receivers ~p:0.0
              in
              R.Transfer.send ~profile ~network ~rng:(R.Rng.create ~seed ()) "x")
        in
        (match r with
        | Ok o when o.R.Transfer.verified -> ()
        | Ok _ | Error _ -> failwith "sim session probe failed");
        cost.call_s);
    extra = (fun _ _ -> []);
  }

(* sim_scale — why: the paper's R = 10^6 regime.  Np_aggregate transfers
   of 2 MB: a cohort of 64 exact machines, the remainder held as a count
   vector.  The only workload that runs the Aggregate
   thinning and samplers; folding Np_aggregate.Mux into Np.Mux needs both
   this workload and sim_exact. *)
let sim_scale_population = 1_000_000
let sim_scale_cohort = 64
let sim_scale_bytes = 2_000_000
let sim_scale_trace_cohort = 8
let sim_scale_trace_bytes = 1_000_000

let sim_scale ~seed =
  let profile = sim_profile `Rse in
  let rate = send_rate profile in
  let config = R.Np.config_of_profile profile in
  let channel = R.Aggregate.bursty ~p:sim_p ~mean_burst:sim_burst ~send_rate:rate in
  let packetize = R.Transfer.packetize ~payload_size:profile.R.Profile.payload_size in
  let msg = message (R.Rng.create ~seed:(seed_of ~seed [ 4; 0 ]) ()) sim_scale_bytes in
  let data = packetize msg in
  let transfer ?recorder ?(channel = channel) ?(network_of = bursty_network ~send_rate:rate)
      ?(i = 0) ~population ~cohort data =
    let network = network_of ~seed:(seed_of ~seed [ 4; 1; i ]) ~receivers:cohort in
    let rng = R.Rng.create ~seed:(seed_of ~seed [ 4; 2; i ]) () in
    let channel = if population > cohort then Some channel else None in
    let report, cost =
      measured (fun () ->
          let mux = R.Np_aggregate.Mux.create (R.Engine.create ()) in
          let flow =
            R.Np_aggregate.Mux.add_flow mux ~config ?recorder ~cohort ?channel ~population ~network
              ~rng ~data ()
          in
          R.Np_aggregate.Mux.run mux;
          R.Np_aggregate.Mux.report flow)
    in
    let message_bytes = Array.fold_left (fun n b -> n + Bytes.length b) 0 data in
    { check = Check.aggregate ~population ~message_bytes ~call_s:cost.call_s report; cost; io = no_io }
  in
  ignore (transfer ~population:sim_scale_population ~cohort:sim_scale_cohort (Array.sub data 0 50));
  let trace_data = Array.sub data 0 (sim_scale_trace_bytes / profile.R.Profile.payload_size) in
  {
    op =
      (fun i ->
        transfer ~i:(same_seed_pair i) ~population:sim_scale_population ~cohort:sim_scale_cohort
          data);
    min_ops = 2;
    deterministic = true;
    notes =
      [
        Printf.sprintf
          "sim_scale: %d B messages via Np_aggregate.Mux to population %d (cohort %d exact \
           machines), Loss.markov2 / Aggregate.bursty p=%g mean burst %g at %g pkt/s, rse k=%d \
           h=%d, payload %d B"
          sim_scale_bytes sim_scale_population sim_scale_cohort sim_p sim_burst rate
          profile.R.Profile.k profile.R.Profile.h profile.R.Profile.payload_size;
      ];
    trace_label =
      Printf.sprintf
        "traced: %d B, cohort %d (timed: %d B, cohort %d), population %d, same channel and seeds"
        (Array.length trace_data * profile.R.Profile.payload_size)
        sim_scale_trace_cohort sim_scale_bytes sim_scale_cohort sim_scale_population;
    trace_op =
      (fun recorder ->
        ( transfer ?recorder ~population:sim_scale_population ~cohort:sim_scale_trace_cohort trace_data,
          capture ~config:(np_machine_config config) ~data:trace_data ~receivers:sim_scale_trace_cohort
            ~decode_per_delivery:false recorder ));
    session_probe =
      (fun () ->
        let r =
          transfer ~channel:(R.Aggregate.bernoulli ~p:0.0)
            ~network_of:(fun ~seed ~receivers ->
              R.Network.independent (R.Rng.create ~seed ()) ~receivers ~p:0.0)
            ~population:sim_scale_population ~cohort:sim_scale_cohort (packetize "x")
        in
        if r.check.Check.failed > 0 then failwith "sim session probe failed";
        r.cost.call_s);
    (* aggregate.remainder_s: the full population minus population = cohort,
       on the same inputs as the first reference operation. *)
    extra =
      (fun spans reference ->
        let cohort_only =
          Span.with_span spans "aggregate.cohort_only" (fun () ->
              transfer ~population:sim_scale_cohort ~cohort:sim_scale_cohort data)
        in
        if cohort_only.check.Check.failed > 0 then failwith "cohort-only transfer failed";
        [
          ( "aggregate.remainder_s",
            reference.cost.call_s -. cohort_only.cost.call_s,
            "s",
            Printf.sprintf "base: cohort-only %.4f s; full population %.4f s" cohort_only.cost.call_s
              reference.cost.call_s );
        ]);
  }

let workloads =
  [
    {
      name = "udp_bulk";
      prepare = udp_bulk;
    };
    {
      name = "udp_small";
      prepare = udp_small;
    };
    {
      name = "sim_exact";
      prepare = sim_exact;
    };
    {
      name = "sim_scale";
      prepare = sim_scale;
    };
  ]

(* --- metrics ------------------------------------------------------------- *)

type metric = { mname : string; value : float; unit_ : string }

let metric mname value unit_ =
  if not (Stats.valid_name mname) then invalid_arg ("invalid metric name " ^ mname);
  { mname; value; unit_ }

let peak_heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6

let end_to_end ~setup_s runs =
  let ops = List.map (fun r -> r.check) runs in
  let walls = List.map (fun o -> o.Check.wall) ops in
  let bytes = List.fold_left (fun n o -> n + o.Check.bytes) 0 ops in
  let cpu_s = List.fold_left (fun n r -> n +. r.cost.cpu_s) 0.0 runs in
  let data_tx = List.fold_left (fun n o -> n + o.Check.data_tx) 0 ops in
  let parity_tx = List.fold_left (fun n o -> n + o.Check.parity_tx) 0 ops in
  let tail = Stats.tail walls in
  ( [
      metric "goodput_MBps"
        (Stats.median
           (List.map (fun o -> Stats.goodput_mbps ~bytes:o.Check.bytes ~seconds:o.Check.wall) ops))
        "MB/s";
      metric "cpu_s_per_MB" (if bytes > 0 then Stats.cpu_s_per_mb ~cpu_s ~bytes else 0.0) "s/MB";
      metric "latency_p50_ms" (1000.0 *. Stats.median walls) "ms";
      metric "latency_tail_ms" (1000.0 *. tail.Stats.value) "ms";
      metric "sim_s_per_transfer" (Stats.median walls) "s";
      metric "tx_per_packet"
        (if data_tx > 0 then Stats.tx_per_packet ~data_tx ~parity_tx else 0.0)
        "ratio";
      metric "setup_s" setup_s "s";
      metric "peak_heap_MB" (peak_heap_mb ()) "MB";
    ],
    [
      Printf.sprintf "operations: %d transfers; wall time per transfer: median %.4f s, tail %s = %.4f s"
        (List.length ops) (Stats.median walls) (Stats.tail_label tail) tail.Stats.value;
      Printf.sprintf "cpu: %.4f s over the timed calls for %.3f MB delivered to every receiver" cpu_s
        (Stats.mb bytes);
      Printf.sprintf "wall times (s): %s%s" (String.concat " " (List.map (Printf.sprintf "%.3f") walls))
        (match walls with
        | _ :: _ :: _ ->
          let q1, _, q3 = Stats.quartiles walls in
          Printf.sprintf "; quartiles %.4f / %.4f" q1 q3
        | _ -> "");
    ] )

(* Which end-to-end metric each layer metric should move, and where. *)
let moves = function
  | "rse.encode_s" | "rse.decode_s" | "rse.decode_MBps" | "rse.parities_encoded"
  | "rse.packets_decoded" ->
    "sim_s_per_transfer on sim_exact (large); cpu_s_per_MB on udp_bulk (small)"
  | "wire.encode_s" | "wire.decode_s" | "wire.messages" ->
    "sim_s_per_transfer on sim_*; cpu_s_per_MB on udp_bulk"
  | "np_machine.self_s" | "np_machine.events" ->
    "sim_s_per_transfer on sim_exact; cpu_s_per_MB on udp_small"
  | "feedback.naks_per_tg" | "feedback.suppression_ratio" | "feedback.rounds_per_tg" ->
    "latency_p50_ms, latency_tail_ms on udp_small; tx_per_packet on all"
  | "transport.syscalls_per_datagram" | "transport.datagrams_per_recv_syscall"
  | "transport.datagrams_per_send_syscall" | "transport.timer_fires" ->
    "goodput_MBps, cpu_s_per_MB on udp_bulk; cpu_s_per_MB on udp_small; flat on sim_*"
  | "transport.session_s" -> "latency_p50_ms on udp_small; flat on udp_bulk"
  | "pool.overflow_allocs" | "gc.minor_words_per_datagram" | "gc.major_collections" ->
    "cpu_s_per_MB, peak_heap_MB on udp_bulk"
  | "residual_s" ->
    "udp_*: cpu_s_per_MB (transport residual); sim_exact: sim_s_per_transfer (sim residual)"
  | "aggregate.remainder_s" -> "sim_s_per_transfer on sim_scale only"
  | "trace.overhead_s" -> "none (tracing cost, not a layer)"
  | _ -> ""

(* --- output -------------------------------------------------------------- *)

let json_result ~correct ~attempted ~failed metrics =
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}" correct
    attempted failed
    (String.concat ", "
       (List.map
          (fun m -> Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" m.mname m.value m.unit_)
          metrics))

let git_rev () =
  match Unix.open_process_in "git rev-parse --short HEAD 2>/dev/null" with
  | exception Unix.Unix_error _ -> "unknown"
  | ic ->
    let line = try Some (input_line ic) with End_of_file -> None in
    (match (Unix.close_process_in ic, line) with
    | Unix.WEXITED 0, Some rev -> rev
    | _ -> "unknown (not a git checkout)")

let provenance ~workload ~seed ~seconds ~trace =
  [
    Printf.sprintf "workload %s, seed %d, seconds %d, trace %d" workload.name seed seconds trace;
    Printf.sprintf "git rev %s, nproc %d, OCaml %s, one process, one reactor thread, no domains"
      (git_rev ()) (Domain.recommended_domain_count ()) Sys.ocaml_version;
  ]

let problems_of runs = List.concat_map (fun r -> r.check.Check.problems) runs

(* Same seed, same inputs: a deterministic core must reproduce its protocol
   counts exactly, run after run. *)
let determinism runs =
  match runs with
  | first :: again :: _ when Check.counts first.check <> Check.counts again.check ->
    [
      Printf.sprintf "same-seed transfers disagree: %s vs %s" (Check.counts_to_string first.check)
        (Check.counts_to_string again.check);
    ]
  | _ -> []

let finish ~lines ~problems ~runs metrics =
  List.iter print_endline lines;
  List.iter (fun p -> print_endline ("FAILED: " ^ p)) problems;
  let attempted = List.fold_left (fun n r -> n + r.check.Check.attempted) 0 runs in
  let failed = List.fold_left (fun n r -> n + r.check.Check.failed) 0 runs in
  let correct = problems = [] && failed = 0 in
  Printf.printf "operations attempted %d, failed %d, outputs %s\n" attempted failed
    (if correct then "correct" else "INCORRECT");
  print_endline (json_result ~correct ~attempted ~failed metrics)

let setup_repeats = 5

let timed_run workload ~seed ~seconds =
  (* Set-up several times, each from a collected heap, and keep the
     median; the last environment runs. *)
  let setups =
    List.init setup_repeats (fun _ ->
        Gc.full_major ();
        let t0 = now () in
        let env = workload.prepare ~seed in
        (now () -. t0, env))
  in
  let setup_s = Stats.median (List.map fst setups) in
  let env = snd (List.nth setups (setup_repeats - 1)) in
  let t0 = now () in
  let rec loop i acc =
    let typical = match acc with [] -> 0.0 | _ -> Stats.median (List.map (fun r -> r.cost.call_s) acc) in
    if i >= env.min_ops && now () -. t0 +. typical > float_of_int seconds then List.rev acc
    else begin
      (* Every transfer starts from a collected heap, so the GC phase a
         transfer meets does not depend on the ones before it. *)
      Gc.full_major ();
      loop (i + 1) (env.op i :: acc)
    end
  in
  let runs = loop 0 [] in
  let metrics, summary = end_to_end ~setup_s runs in
  let problems = problems_of runs @ if env.deterministic then determinism runs else [] in
  let lines =
    env.notes @ summary
    @ [ Printf.sprintf "setup_s: median of %d set-ups: %s" setup_repeats
          (String.concat ", " (List.map (fun (s, _) -> Printf.sprintf "%.4f" s) setups)) ]
    @ (if env.deterministic then
         [ Printf.sprintf "determinism: transfers 0 and 1 share a seed, both %s"
             (Check.counts_to_string (List.hd runs).check) ]
       else [])
    @ List.map (fun m -> Printf.sprintf "metric %-20s %14.6f %s" m.mname m.value m.unit_) metrics
  in
  finish ~lines ~problems ~runs metrics

let traced_run workload ~seed =
  let spans = Span.create (Printf.sprintf "%s-seed%d" workload.name seed) in
  let env, reference, untraced, traced, counts, sessions, extra, replay_problems =
    Span.with_span spans "run" (fun () ->
        let env = Span.with_span spans "setup" (fun () -> workload.prepare ~seed) in
        let references =
          Span.with_span spans "reference" (fun () ->
              List.init env.min_ops (fun i ->
                  Gc.full_major ();
                  env.op i))
        in
        let untraced, _ = Span.with_span spans "untraced" (fun () -> env.trace_op None) in
        let traced, captures =
          Span.with_span spans "traced" (fun () -> env.trace_op (Some (R.Recorder.create ())))
        in
        (* Start the re-drive from a settled heap, not with the debt of the
           runs before it. *)
        Gc.full_major ();
        let counts =
          Span.with_span spans "redrive" (fun () ->
              List.fold_left (fun acc c -> Redrive.add acc (Redrive.run spans c)) Redrive.zero captures)
        in
        (* UDP captures carry the meta Np_replay needs: the live run must
           replay through the core without divergence. *)
        let replay_problems =
          Span.with_span spans "replay_check" (fun () ->
              List.filter_map
                (fun c ->
                  match R.Recorder.meta c.Redrive.recorder "format" with
                  | None -> None
                  | Some _ -> (
                    match R.Np_replay.replay c.Redrive.recorder with
                    | Ok { R.Np_replay.divergence = None; _ } -> None
                    | Ok { R.Np_replay.divergence = Some d; _ } -> Some ("replay diverged: " ^ d)
                    | Error e -> Some ("capture unusable: " ^ e)))
                captures)
        in
        let sessions =
          List.init 3 (fun _ -> Span.with_span spans "transport.session" env.session_probe)
        in
        let extra = env.extra spans (List.hd references) in
        (env, sum_runs references, untraced, traced, counts, sessions, extra, replay_problems))
  in
  let enc = counts.Redrive.encode_s and dec = counts.Redrive.decode_s in
  let wenc = counts.Redrive.wire_encode_s and wdec = counts.Redrive.wire_decode_s in
  let machine = counts.Redrive.handle_s -. enc -. dec in
  let layers = enc +. dec +. wenc +. wdec +. machine in
  let residual = untraced.cost.cpu_s -. layers in
  let overhead = traced.cost.cpu_s -. untraced.cost.cpu_s in
  let o = reference.check and io = reference.io in
  let datagrams = io.datagrams_tx + io.datagrams_rx in
  let transmissions = o.Check.data_tx + o.Check.parity_tx in
  let udp = datagrams > 0 in
  let rows =
    [
      ( "rse.encode_s",
        enc,
        "s",
        Printf.sprintf "%d parities re-encoded" counts.Redrive.parities_encoded );
      ( "rse.decode_s",
        dec,
        "s",
        Printf.sprintf "%d (receiver, TG) blocks" counts.Redrive.blocks_decoded );
      ( "rse.decode_MBps",
        (if dec > 0.0 then Stats.mb counts.Redrive.decoded_bytes /. dec else 0.0),
        "MB/s",
        Printf.sprintf "%.3f MB decoded / %.6f s" (Stats.mb counts.Redrive.decoded_bytes) dec );
      ("rse.parities_encoded", float_of_int counts.Redrive.parities_encoded, "count", "traced shape");
      ( "rse.packets_decoded",
        float_of_int counts.Redrive.packets_decoded,
        "count",
        "data packets reconstructed, traced shape" );
      ("wire.encode_s", wenc, "s", Printf.sprintf "%d messages" counts.Redrive.wire_encoded);
      ("wire.decode_s", wdec, "s", Printf.sprintf "%d messages" counts.Redrive.wire_decoded);
      ( "wire.messages",
        float_of_int (counts.Redrive.wire_encoded + counts.Redrive.wire_decoded),
        "count",
        "encodes + decodes" );
      ("np_machine.self_s", machine, "s", "np_machine.handle span minus rse.encode_s and rse.decode_s");
      ("np_machine.events", float_of_int counts.Redrive.events, "count", "events re-driven");
      ( "feedback.naks_per_tg",
        Stats.ratio o.Check.naks_sent o.Check.tgs,
        "1/TG",
        Printf.sprintf "%d NAKs / %d TGs" o.Check.naks_sent o.Check.tgs );
      ( "feedback.suppression_ratio",
        Stats.ratio o.Check.naks_suppressed (o.Check.naks_sent + o.Check.naks_suppressed),
        "ratio",
        Printf.sprintf "%d suppressed / (%d sent + suppressed)" o.Check.naks_suppressed
          o.Check.naks_sent );
      ( "feedback.rounds_per_tg",
        Stats.ratio o.Check.polls o.Check.tgs,
        "1/TG",
        Printf.sprintf "%d POLL rounds / %d TGs" o.Check.polls o.Check.tgs );
      ( "transport.syscalls_per_datagram",
        Stats.ratio (io.syscalls_tx + io.syscalls_rx) datagrams,
        "1/datagram",
        Printf.sprintf "%d syscalls / %d datagrams" (io.syscalls_tx + io.syscalls_rx) datagrams );
      ( "transport.datagrams_per_recv_syscall",
        Stats.ratio io.datagrams_rx io.syscalls_rx,
        "datagram/call",
        Printf.sprintf "%d / %d" io.datagrams_rx io.syscalls_rx );
      ( "transport.datagrams_per_send_syscall",
        Stats.ratio io.datagrams_tx io.syscalls_tx,
        "datagram/call",
        Printf.sprintf "%d / %d" io.datagrams_tx io.syscalls_tx );
      ("transport.timer_fires", float_of_int io.timer_fires, "count", "reactor timers fired");
      ( "transport.session_s",
        Stats.median sessions,
        "s",
        Printf.sprintf "median of %d 1-packet lossless sessions%s" (List.length sessions)
          (if udp then ", minus linger" else " (simulated: network + machines)") );
      ("pool.overflow_allocs", float_of_int io.overflow_allocs, "count", "buffer pool misses");
      ( "gc.minor_words_per_datagram",
        reference.cost.minor_words /. float_of_int (max 1 (if udp then datagrams else transmissions)),
        "words/datagram",
        Printf.sprintf "%.0f minor words / %d %s" reference.cost.minor_words
          (if udp then datagrams else transmissions)
          (if udp then "datagrams" else "simulated transmissions") );
      ( "gc.major_collections",
        float_of_int reference.cost.major_collections,
        "count",
        "over the reference operations" );
      ( "residual_s",
        residual,
        "s",
        Printf.sprintf "%s: untraced CPU %.4f s minus layer self times %.4f s"
          (if udp then "transport.residual_s" else "sim.residual_s")
          untraced.cost.cpu_s layers );
      ( "trace.overhead_s",
        overhead,
        "s",
        Printf.sprintf "traced CPU %.4f s minus untraced %.4f s (wall %.4f - %.4f s)" traced.cost.cpu_s
          untraced.cost.cpu_s traced.cost.call_s untraced.cost.call_s );
    ]
  in
  let runs = [ reference; untraced; traced ] in
  let problems =
    problems_of runs @ replay_problems
    @ (if counts.Redrive.mismatches > 0 then
         [ Printf.sprintf "%d of %d captured deliveries do not match the source bytes"
             counts.Redrive.mismatches counts.Redrive.deliveries_checked ]
       else [])
    @ (if counts.Redrive.deliveries_checked <> counts.Redrive.deliveries_expected then
         [ Printf.sprintf "the capture holds %d deliveries, expected %d (receivers x TGs)"
             counts.Redrive.deliveries_checked counts.Redrive.deliveries_expected ]
       else [])
  in
  (try Sys.mkdir "perfbench/out" 0o755 with Sys_error _ -> ());
  let spans_path = Printf.sprintf "perfbench/out/spans-%s-seed%d.jsonl" workload.name seed in
  Span.write spans spans_path;
  let table =
    List.map
      (fun (name, value, unit_, base) ->
        Printf.sprintf "  %-36s %14.6f %-14s %-60s %s" name value unit_ base (moves name))
      (rows @ extra)
  in
  let lines =
    env.notes
    @ [
        env.trace_label;
        Printf.sprintf "reference: the first %d timed-shape operations, untraced: %s" env.min_ops
          (Check.counts_to_string o);
        Printf.sprintf
          "independent oracle: %d captured deliveries checked against the source, %d mismatches"
          counts.Redrive.deliveries_checked counts.Redrive.mismatches;
        Printf.sprintf "spans: %d written to %s" (List.length (Span.spans spans)) spans_path;
        Printf.sprintf "per-layer table (%s):" workload.name;
        Printf.sprintf "  %-36s %14s %-14s %-60s %s" "metric" "value" "unit" "base" "should move";
      ]
    @ table
  in
  finish ~lines ~problems ~runs (List.map (fun (n, v, u, _) -> metric n v u) rows)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0 in
  let spec =
    [
      ("--workload", Arg.Set_string workload, "NAME one of udp_bulk, udp_small, sim_exact, sim_scale");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_int seconds, "S measurement time");
      ("--trace", Arg.Set_int trace, "0|1 traced run");
    ]
  in
  let usage = "main.exe --workload NAME --seed N --seconds S --trace 0|1" in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  match List.find_opt (fun w -> w.name = !workload) workloads with
  | None ->
    prerr_endline ("unknown workload " ^ !workload ^ "\n" ^ usage);
    exit 2
  | Some _ when !seconds < 1 || (!trace <> 0 && !trace <> 1) ->
    prerr_endline usage;
    exit 2
  | Some w -> (
    List.iter print_endline (provenance ~workload:w ~seed:!seed ~seconds:!seconds ~trace:!trace);
    try if !trace = 1 then traced_run w ~seed:!seed else timed_run w ~seed:!seed ~seconds:!seconds
    with e ->
      print_endline ("FAILED: " ^ Printexc.to_string e);
      print_endline (json_result ~correct:false ~attempted:1 ~failed:1 []);
      exit 1)
