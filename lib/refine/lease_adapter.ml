module Audit = Renaming_service.Audit
module Router = Renaming_service.Router
module Lease = Renaming_service.Lease
module Net_churn = Renaming_service.Net_churn
module Longlived = Renaming_longlived.Longlived

type t = { check : Check.t }

let create ?obs ~namespace () =
  { check = Check.create ?obs ~config:{ Spec.namespace; one_shot = false } () }

let check t = t.check

(* The first rejection ends the run: the simulation stops at the tap
   call that heard it and reports it as its violation. *)
let judge = function
  | `Ok -> ()
  | `Violation v ->
      raise
        (Audit.Violation
           {
             kind = "refine:" ^ v.Check.v_reason;
             message = Format.asprintf "refinement: %a" Check.pp_violation v;
           })

let audit_event t ~slice ~slice_width ~now (ev : Audit.event) =
  let c = t.check and base = slice * slice_width in
  match ev with
  | Audit.Granted { fence = { Lease.f_name; f_session = session; _ }; expires; capacity } ->
      judge (Check.observe_at c ~now (Obs_event.Invoked { session }));
      judge (Check.lease c ~now ~session ~name:(base + f_name) ~expires ~slice ~capacity)
  | Audit.Renewed { fence = { Lease.f_name; f_session = session; _ }; expires; accepted = true } ->
      judge (Check.renew c ~now ~session ~name:(base + f_name) ~expires)
  | Audit.Validated { fence = { Lease.f_name; f_session = session; _ }; accepted = true } ->
      judge (Check.use c ~now ~session ~name:(base + f_name))
  | Audit.Released { fence = { Lease.f_name; f_session = session; _ }; accepted = true } ->
      judge (Check.observe_at c ~now (Obs_event.Released { session; name = base + f_name }))
  | Audit.Reclaimed { fence = { Lease.f_name; f_session = session; _ } } ->
      judge (Check.observe_at c ~now (Obs_event.Reclaimed { session; name = base + f_name }))
  | Audit.Renewed { accepted = false; _ }
  | Audit.Validated { accepted = false; _ }
  | Audit.Released { accepted = false; _ } ->
      (* A fenced-off operation is the fence doing its job: it changes
         nothing the spec can see. *)
      Check.stutter c

let router_tap t ~slice_width (ev : Router.tap_event) =
  match ev with
  | Router.Tap_audit { slice; now; ev } -> audit_event t ~slice ~slice_width ~now ev
  | Router.Tap_absorb { slice; now } ->
      (* The absorb discards an orphaned slice body: every name the spec
         still accounts to the slice's global range leaves its holder,
         which the spec allows only once that holder's lease expired. *)
      let base = slice * slice_width in
      for name = base to base + slice_width - 1 do
        match Spec.holder (Check.spec t.check) ~name with
        | Some session -> judge (Check.absorb t.check ~now ~session ~name)
        | None -> ()
      done

let run ?obs (cfg : Net_churn.config) ~seed =
  let rcfg = cfg.Net_churn.router in
  let slice_width =
    Longlived.namespace_for ~sessions:rcfg.Router.slice_capacity ~epsilon:rcfg.Router.epsilon
  in
  let t = create ?obs ~namespace:(rcfg.Router.slices * slice_width) () in
  let summary = Net_churn.run ?obs ~tap:(router_tap t ~slice_width) cfg ~seed in
  (summary, t.check)
