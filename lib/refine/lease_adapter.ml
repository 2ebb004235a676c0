module Audit = Renaming_service.Audit
module Router = Renaming_service.Router
module Lease = Renaming_service.Lease

type t = { check : Check.t }

let create ?obs ~namespace () =
  { check = Check.create ?obs ~config:{ Spec.namespace; one_shot = false } () }

let check t = t.check

(* Never raise: violations accumulate on the check and the campaign
   runner reports them after the simulation. *)
let feed t ev = ignore (Check.observe t.check ev : [ `Ok | `Violation of Check.violation ])

let audit_event t ~offset (ev : Audit.event) =
  match ev with
  | Audit.Granted { fence = { Lease.f_name; f_session; _ }; _ } ->
      feed t (Obs_event.Invoked { session = f_session });
      feed t (Obs_event.Granted { session = f_session; name = offset + f_name })
  | Audit.Released { fence = { Lease.f_name; f_session; _ }; accepted = true } ->
      feed t (Obs_event.Released { session = f_session; name = offset + f_name })
  | Audit.Reclaimed { fence = { Lease.f_name; f_session; _ }; _ } ->
      feed t (Obs_event.Reclaimed { session = f_session; name = offset + f_name })
  | Audit.Released { accepted = false; _ } | Audit.Renewed _ | Audit.Validated _ ->
      (* Renewals, validations and fenced-off ghosts change nothing the
         spec can see. *)
      Check.stutter t.check

let router_tap t ~slice_width (ev : Router.tap_event) =
  match ev with
  | Router.Tap_audit { slice; ev; _ } -> audit_event t ~offset:(slice * slice_width) ev
  | Router.Tap_absorb { slice; _ } ->
      (* The absorb discards an orphaned slice body after grace >= ttl:
         every lease it issued has expired, so the spec frees whatever
         it still accounts to the slice's global range. *)
      let base = slice * slice_width in
      for name = base to base + slice_width - 1 do
        match Spec.holder (Check.spec t.check) ~name with
        | Some session -> feed t (Obs_event.Reclaimed { session; name })
        | None -> ()
      done
