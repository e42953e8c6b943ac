(* Re-drive three layers with the inputs a traced run fed them.

   Tracing inside the library is not available, so the traced run records
   a [Recorder] capture of every event the sans-IO machines consumed and
   every effect they emitted, and this module replays those inputs through
   the layers' public functions, one layer per span:

   - [rse.encode]: every repair packet the sender emitted, re-encoded from
     the source block ([Fec_block.Sender.parity]);
   - [rse.decode]: every receiver's block fed the data/parity packets it
     received, in arrival order, until decodable, then decoded;
   - [wire.encode] / [wire.decode]: every message sent, through
     [Header.encode_into]; every message received (UDP: once per delivery;
     simulator: once per transmission), through [Header.decode_slice];
   - [np_machine.handle]: every recorded event through [Sender.handle] /
     [Receiver.handle].  The machine runs the codec itself, so its self
     time is this span minus the two [rse] spans.

   Each layer is re-driven [repeats] times on fresh state, one span per
   pass, and reported at its median pass, so a GC slice landing in one
   short pass does not decide the figure.  All parsing happens before the
   spans open.  The capture's [Deliver]
   digests are also checked against digests of the benchmark's own source
   bytes — an oracle independent of the library's verification. *)

module Recorder = Rmcast.Recorder
module Np_machine = Rmcast.Np_machine
module Header = Rmcast.Header
module Fec_block = Rmcast.Fec_block
module Codec = Rmcast.Codec
module Rng = Rmcast.Rng
open Perfbench

type capture = {
  recorder : Recorder.t;
  config : Np_machine.config;
  data : Bytes.t array;  (** the source payloads, one per packet *)
  receivers : int;
  decode_per_delivery : bool;  (** UDP: every receiver decodes its datagrams *)
}

type result = {
  handle_s : float;  (** np_machine.handle, codec work included *)
  encode_s : float;
  decode_s : float;
  wire_encode_s : float;
  wire_decode_s : float;
  events : int;
  parities_encoded : int;
  blocks_decoded : int;
  packets_decoded : int;
  decoded_bytes : int;
  wire_encoded : int;
  wire_decoded : int;
  deliveries_expected : int;  (** receivers x TGs *)
  deliveries_checked : int;
  mismatches : int;
}

let zero =
  {
    handle_s = 0.0; encode_s = 0.0; decode_s = 0.0; wire_encode_s = 0.0; wire_decode_s = 0.0;
    events = 0; parities_encoded = 0; blocks_decoded = 0; packets_decoded = 0; decoded_bytes = 0;
    wire_encoded = 0;
    wire_decoded = 0; deliveries_expected = 0; deliveries_checked = 0; mismatches = 0;
  }

let add a b =
  {
    handle_s = a.handle_s +. b.handle_s;
    encode_s = a.encode_s +. b.encode_s;
    decode_s = a.decode_s +. b.decode_s;
    wire_encode_s = a.wire_encode_s +. b.wire_encode_s;
    wire_decode_s = a.wire_decode_s +. b.wire_decode_s;
    events = a.events + b.events;
    parities_encoded = a.parities_encoded + b.parities_encoded;
    blocks_decoded = a.blocks_decoded + b.blocks_decoded;
    packets_decoded = a.packets_decoded + b.packets_decoded;
    decoded_bytes = a.decoded_bytes + b.decoded_bytes;
    wire_encoded = a.wire_encoded + b.wire_encoded;
    wire_decoded = a.wire_decoded + b.wire_decoded;
    deliveries_expected = a.deliveries_expected + b.deliveries_expected;
    deliveries_checked = a.deliveries_checked + b.deliveries_checked;
    mismatches = a.mismatches + b.mismatches;
  }

let bytes_of_hex s =
  let digit c =
    match c with
    | '0' .. '9' -> Char.code c - 48
    | 'a' .. 'f' -> Char.code c - 87
    | _ -> invalid_arg "Redrive: bad hex digit"
  in
  Bytes.init (String.length s / 2) (fun i ->
      Char.chr ((digit s.[2 * i] lsl 4) lor digit s.[(2 * i) + 1]))

let strip prefix s =
  let n = String.length prefix in
  if String.length s >= n && String.sub s 0 n = prefix then Some (String.sub s n (String.length s - n))
  else None

let or_fail what = function Ok v -> v | Error reason -> failwith (what ^ ": " ^ reason)

(* TG ids in a capture: session-local for the simulator, wire ids (session
   0 in the upper 16 bits) for UDP — the low 16 bits index the source. *)
let local tg = tg land 0xffff

let block c tg =
  let k = c.config.Np_machine.k in
  let base = local tg * k in
  Array.sub c.data base (min k (Array.length c.data - base))

let repeats = 5

let layer spans name ~fresh f =
  Stats.median
    (List.init repeats (fun _ ->
         let state = fresh () in
         Span.with_span spans name (fun () -> f state);
         Span.self_time spans (Span.last spans)))

let run spans c =
  let k = c.config.Np_machine.k and h = c.config.Np_machine.h in
  let codec = Codec.of_kind c.config.Np_machine.codec in
  let tg_count = (Array.length c.data + k - 1) / k in
  (* --- parse the capture (untimed) --- *)
  let events = ref [] and sends = ref [] and delivers = ref [] in
  List.iter
    (fun (e : Recorder.entry) ->
      (* Only machine actors: the aggregate tier also records its
         population-level summaries under "aggregate". *)
      if e.Recorder.actor <> "s0" && e.Recorder.actor.[0] <> 'r' then ()
      else
      match e.Recorder.kind with
      | Recorder.Event ->
        let event = or_fail "event" (Np_machine.event_of_string e.Recorder.body) in
        events := (e.Recorder.actor, event) :: !events
      | Recorder.Effect -> (
        match strip "send:" e.Recorder.body with
        | Some hex -> sends := or_fail "send" (Header.decode (bytes_of_hex hex)) :: !sends
        | None -> (
          match strip "deliver:" e.Recorder.body with
          | Some rest -> delivers := rest :: !delivers
          | None -> ())))
    (Recorder.entries c.recorder);
  let events = Array.of_list (List.rev !events) and sends = List.rev !sends in
  (* Independent delivery oracle: each Deliver digest against the source. *)
  let mismatches =
    List.fold_left
      (fun bad rest ->
        match String.split_on_char ':' rest with
        | [ tg; _reconstructed; digest ] ->
          let expect =
            Digest.to_hex
              (Digest.bytes (Bytes.concat Bytes.empty (Array.to_list (block c (int_of_string tg)))))
          in
          if String.equal expect digest then bad else bad + 1
        | _ -> bad + 1)
      0 !delivers
  in
  (* --- np_machine --- *)
  let expected = List.init tg_count (fun tg -> (tg, min k (Array.length c.data - (tg * k)))) in
  let receiver_of actor = int_of_string (String.sub actor 1 (String.length actor - 1)) in
  let machines () =
    let sender = Np_machine.Sender.create c.config ~data:c.data in
    let rxs =
      Array.init c.receivers (fun id ->
          let rng = Rng.create ~seed:id () in
          Np_machine.Receiver.create ~expected c.config ~rand:(fun () -> Rng.float rng))
    in
    Array.map
      (fun (actor, event) ->
        if actor.[0] = 's' then `S (sender, event) else `R (rxs.(receiver_of actor), event))
      events
  in
  let handle_s =
    layer spans "np_machine.handle" ~fresh:machines
      (Array.iter (function
        | `S (sender, event) -> ignore (Np_machine.Sender.handle sender event)
        | `R (rx, event) -> ignore (Np_machine.Receiver.handle rx event)))
  in
  (* --- rse encode --- *)
  let parities = Hashtbl.create 64 in
  List.iter
    (function
      | Header.Parity { tg_id; index = j; _ } ->
        let seen = Option.value ~default:[] (Hashtbl.find_opt parities tg_id) in
        if not (List.mem j seen) then Hashtbl.replace parities tg_id (j :: seen)
      | Header.Data _ | Header.Poll _ | Header.Nak _ | Header.Exhausted _ -> ())
    sends;
  let to_encode = Hashtbl.fold (fun tg js acc -> (block c tg, List.rev js) :: acc) parities [] in
  let parities_encoded = List.fold_left (fun n (_, js) -> n + List.length js) 0 to_encode in
  let encode_s =
    layer spans "rse.encode" ~fresh:Fun.id (fun () ->
        List.iter
          (fun (src, js) ->
            let blk = Fec_block.Sender.create ~codec ~h src in
            List.iter (fun j -> ignore (Fec_block.Sender.parity blk j)) js)
          to_encode)
  in
  (* --- rse decode: per (receiver, tg), packets in arrival order --- *)
  let arrivals = Hashtbl.create 1024 in
  let received = ref [] in
  let arrive key tk index payload =
    let tk, got = Option.value ~default:(tk, []) (Hashtbl.find_opt arrivals key) in
    Hashtbl.replace arrivals key (tk, (index, payload) :: got)
  in
  Array.iter
    (fun (actor, event) ->
      match event with
      | Np_machine.Packet_received m ->
        received := m :: !received;
        (match m with
        | Header.Data { tg_id; k = tk; index; payload } ->
          arrive (actor, tg_id) tk index payload
        | Header.Parity { tg_id; k = tk; index = j; payload; _ } ->
          (* Wire parity index j is block index k + j. *)
          arrive (actor, tg_id) tk (tk + j) payload
        | Header.Poll _ | Header.Nak _ | Header.Exhausted _ -> ())
      | Np_machine.Feedback { tg; need; round } ->
        received := Header.Nak { tg_id = tg; need; round } :: !received
      | Np_machine.Timer_fired _ | Np_machine.Retune _ | Np_machine.Tick -> ())
    events;
  let to_decode = Hashtbl.fold (fun _ (tk, got) acc -> (tk, List.rev got) :: acc) arrivals [] in
  let blocks = ref 0 and decoded = ref 0 and decoded_bytes = ref 0 in
  let decode_s =
    layer spans "rse.decode" ~fresh:Fun.id (fun () ->
      blocks := 0;
      decoded := 0;
      decoded_bytes := 0;
      List.iter
        (fun (tk, got) ->
          let rx = Fec_block.Receiver.create ~codec ~k:tk ~h in
          List.iter
            (fun (index, payload) ->
              if not (Fec_block.Receiver.complete rx) then
                ignore (Fec_block.Receiver.add rx ~index payload))
            got;
          if Fec_block.Receiver.complete rx then begin
            incr blocks;
            decoded := !decoded + List.length (Fec_block.Receiver.missing_data rx);
            let out = Fec_block.Receiver.decode rx in
            decoded_bytes := !decoded_bytes + Array.fold_left (fun n b -> n + Bytes.length b) 0 out
          end)
        to_decode)
  in
  (* --- wire --- *)
  let scratch = Bytes.create Rmcast.Udp_np.max_datagram in
  let wire_encode_s =
    layer spans "wire.encode" ~fresh:Fun.id (fun () ->
        List.iter (fun m -> ignore (Header.encode_into scratch ~off:0 m)) sends)
  in
  let incoming =
    Array.of_list
      (List.map Header.encode (if c.decode_per_delivery then List.rev !received else sends))
  in
  let wire_decode_s =
    layer spans "wire.decode" ~fresh:Fun.id (fun () ->
        Array.iter
          (fun b -> ignore (or_fail "wire" (Header.decode_slice b ~off:0 ~len:(Bytes.length b))))
          incoming)
  in
  {
    handle_s;
    encode_s;
    decode_s;
    wire_encode_s;
    wire_decode_s;
    events = Array.length events;
    parities_encoded;
    blocks_decoded = !blocks;
    packets_decoded = !decoded;
    decoded_bytes = !decoded_bytes;
    wire_encoded = List.length sends;
    wire_decoded = Array.length incoming;
    deliveries_expected = c.receivers * tg_count;
    deliveries_checked = List.length !delivers;
    mismatches;
  }
