exception Violation of { kind : string; message : string }

type event =
  | Granted of { fence : Lease.fence; expires : float; capacity : int }
  | Renewed of { fence : Lease.fence; expires : float; accepted : bool }
  | Validated of { fence : Lease.fence; accepted : bool }
  | Released of { fence : Lease.fence; accepted : bool }
  | Reclaimed of { fence : Lease.fence }
