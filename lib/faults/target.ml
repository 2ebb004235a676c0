type t = {
  name : string;
  n : int;
  mode : Monitor.mode;
  build : seed:int64 -> Renaming_sched.Executor.instance;
}
