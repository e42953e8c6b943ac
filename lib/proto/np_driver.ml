module Recorder = Rmc_obs.Recorder
module Controller = Rmc_control.Controller
module Profile = Rmc_core.Profile

let max_datagram = 65536

let machine_config (p : Profile.t) =
  {
    Np_machine.k = p.Profile.k;
    h = p.Profile.h;
    proactive = p.Profile.proactive;
    pre_encode = p.Profile.pre_encode;
    slot = p.Profile.slot;
    codec = p.Profile.codec;
  }

let expected ~k ?(tg = Fun.id) data =
  let total = Array.length data in
  List.init ((total + k - 1) / k) (fun local -> (tg local, min k (total - (local * k))))

(* The one place a machine call meets the capture: the event before the
   machine sees it, then every effect it produced, all under the machine's
   actor.  Without a recorder the handlers below call the machine
   directly. *)
let record_event r ~actor event =
  Recorder.record_event r ~actor (Np_machine.event_to_string event)

let record_effects r ~actor effects =
  List.iter (fun e -> Recorder.record_effect r ~actor (Np_machine.effect_to_string e)) effects;
  effects

module Sender = struct
  type t = {
    machine : Np_machine.Sender.t;
    actor : string;
    recorder : Recorder.t option;
    controller : Controller.t option; (* None iff the profile's controller is `Static *)
    mutable applied : Controller.decision; (* last decision fed as Retune *)
  }

  let create ?recorder ~actor ~receivers (p : Profile.t) ~data =
    let controller =
      match p.Profile.controller with
      | `Static -> None
      | (`Ewma | `Gilbert_aware) as kind ->
        Some
          (Controller.create ~kind ~k:p.Profile.k ~h:p.Profile.h ~proactive:p.Profile.proactive
             ~receivers ~pacing:p.Profile.pacing ())
    in
    {
      machine = Np_machine.Sender.create (machine_config p) ~data;
      actor;
      recorder;
      controller;
      applied =
        { Controller.proactive = min p.Profile.proactive p.Profile.h; budget = p.Profile.h };
    }

  let machine t = t.machine
  let controller t = t.controller

  let handle t event =
    match t.recorder with
    | None -> Np_machine.Sender.handle t.machine event
    | Some r ->
      record_event r ~actor:t.actor event;
      record_effects r ~actor:t.actor (Np_machine.Sender.handle t.machine event)

  (* Apply the controller's current decision when it differs from the last
     one fed to the machine.  It goes through [handle] so the Retune event
     lands in the capture — replay stays deterministic without ever
     re-running the controller. *)
  let retune t =
    match t.controller with
    | None -> []
    | Some controller ->
      let d = Controller.decision controller in
      if Controller.decision_equal d t.applied then []
      else begin
        t.applied <- d;
        handle t
          (Np_machine.Retune
             { proactive = d.Controller.proactive; budget = d.Controller.budget })
      end

  let tick t =
    let retuned = retune t in
    retuned @ handle t Np_machine.Tick

  let observe_poll t ~tg ~k ~size ~round =
    match t.controller with
    | Some controller -> Controller.observe_poll controller ~tg ~k ~size ~round
    | None -> ()

  let feedback t ~tg ~need ~round =
    (match t.controller with
    | Some controller -> Controller.observe_nak controller ~tg ~need ~round
    | None -> ());
    handle t (Np_machine.Feedback { tg; need; round })
end

module Receiver = struct
  type t = { machine : Np_machine.Receiver.t; actor : string; recorder : Recorder.t option }

  let create ?recorder ~actor ~expected p ~rand =
    { machine = Np_machine.Receiver.create ~expected (machine_config p) ~rand; actor; recorder }

  let machine t = t.machine

  let handle t event =
    match t.recorder with
    | None -> Np_machine.Receiver.handle t.machine event
    | Some r ->
      record_event r ~actor:t.actor event;
      record_effects r ~actor:t.actor (Np_machine.Receiver.handle t.machine event)
end
