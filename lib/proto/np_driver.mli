(** The machine glue every NP driver shares: the virtual-time
    interpreter ({!Np.Mux}, which {!Np_aggregate} also runs on) and the
    socket interpreter ({!Rmc_transport.Udp_np}) bind {!Np_machine}
    through it.  With a {!Rmc_obs.Recorder} attached, each consumed event
    and every emitted effect land in the capture under the machine's actor
    name — the stream {!Np_replay} re-executes.  A sender carries its
    adaptive {!Rmc_control.Controller} (none under [`Static]), which
    observes every POLL sent and NAK received; its decisions reach the
    machine as recorded [Retune] events before the next transmission. *)

val max_datagram : int
(** Largest datagram any driver moves (65536): a config that simulates
    also fits real sockets. *)

val machine_config : Rmc_core.Profile.t -> Np_machine.config
(** The protocol fields of a profile, as the machine takes them. *)

val expected : k:int -> ?tg:(int -> int) -> Bytes.t array -> (int * int) list
(** The TGs a receiver of [data] must resolve, as [(tg id, data packets)]:
    [data] cut into TGs of [k] packets, the last one possibly shorter.
    [tg] maps a session-local TG index to the id the machines use
    (default: the index itself). *)

module Sender : sig
  type t

  val create :
    ?recorder:Rmc_obs.Recorder.t ->
    actor:string ->
    receivers:int ->
    Rmc_core.Profile.t ->
    data:Bytes.t array ->
    t
  (** A sender machine for [data], plus the controller the profile selects
      (sized for [receivers] and the profile's pacing).  [actor] names the
      machine in the capture (["s<sid>"]). *)

  val machine : t -> Np_machine.Sender.t
  val controller : t -> Rmc_control.Controller.t option

  val handle : t -> Np_machine.event -> Np_machine.effect list
  (** Feed one event, recording it and its effects. *)

  val tick : t -> Np_machine.effect list
  (** The next transmission: first a [Retune] when the controller's
      decision changed since the last one applied, then a [Tick].  Returns
      the effects of both, in that order. *)

  val observe_poll : t -> tg:int -> k:int -> size:int -> round:int -> unit
  (** A POLL the sender multicast, for the controller's loss window. *)

  val feedback : t -> tg:int -> need:int -> round:int -> Np_machine.effect list
  (** A NAK reached the sender: the controller observes it, then the
      machine handles it as [Feedback]. *)
end

module Receiver : sig
  type t

  val create :
    ?recorder:Rmc_obs.Recorder.t ->
    actor:string ->
    expected:(int * int) list ->
    Rmc_core.Profile.t ->
    rand:(unit -> float) ->
    t
  (** A receiver machine expecting [expected] (TG id, data packets) and
      drawing NAK damping from [rand].  [actor] names it in the capture
      (["r<id>"]). *)

  val machine : t -> Np_machine.Receiver.t

  val handle : t -> Np_machine.event -> Np_machine.effect list
  (** Feed one event, recording it and its effects. *)
end
