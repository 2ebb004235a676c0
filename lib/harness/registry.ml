type entry = {
  id : string;
  title : string;
  claim : string;
  run : Runcfg.scale -> Table.t;
}

let all =
  [
    {
      id = "T1";
      title = "Theorem 5: tight renaming step complexity";
      claim = "n processes, namespace n, O(log n) steps w.h.p. (mass-conserving schedule)";
      run = Exp_tight.t1;
    };
    {
      id = "T1b";
      title = "Definition 2 literal-schedule coverage";
      claim = "literal clusters cover only ~n/(2(2c-1)) names (reproduction finding)";
      run = Exp_tight.t1b;
    };
    {
      id = "T2";
      title = "Lemma 3: balls-into-bins empty-bin bound";
      claim = "2c log n balls into 2 log n bins leave < log n empty bins, failure <= 1/n^l";
      run = Exp_lemma3.t2;
    };
    {
      id = "T3";
      title = "Lemma 4(2): per-block request load";
      claim = "every block receives >= 2c log n requests in every round, w.h.p.";
      run = Exp_tight.t3;
    };
    {
      id = "T4";
      title = "Lemma 6: geometric-rounds loose renaming";
      claim = "unnamed <= 2n/(loglog n)^l after (loglog n)^l steps, w.h.p.";
      run = Exp_loose.t4;
    };
    {
      id = "T5";
      title = "Corollary 7: full loose renaming (geometric)";
      claim = "namespace n + 2n/(loglog n)^l, O((loglog n)^l) steps, complete w.h.p.";
      run = Exp_combined.t5;
    };
    {
      id = "T6";
      title = "Lemma 8: clustered loose renaming";
      claim = "unnamed <= n/(log n)^{2l} with step complexity 2l(loglog n)^2, w.h.p.";
      run = Exp_loose.t6;
    };
    {
      id = "T7";
      title = "Corollary 9: full loose renaming (clustered)";
      claim = "namespace n + 2n/(log n)^l, O((loglog n)^2) steps, complete w.h.p.";
      run = Exp_combined.t7;
    };
    {
      id = "T8";
      title = "Related-work comparison";
      claim = "tau-register tight renaming beats sorting-network renaming (log n vs log^2 n) and Theta(n) baselines";
      run = Exp_baselines.t8;
    };
    {
      id = "T9";
      title = "Adversary robustness";
      claim = "soundness under unfair/adaptive/crashing adversaries (model of sec. II-A)";
      run = Exp_adversary.t9;
    };
    {
      id = "T10";
      title = "Counting device contract";
      claim = "at most tau bits accepted, winners never revoked, literal procedure = reference";
      run = Exp_device.t10;
    };
    {
      id = "T11";
      title = "Adaptive renaming (unknown k)";
      claim = "doubling transform of sec. IV: namespace O((1+eps)k), steps O(log k (loglog k)^l)";
      run = Exp_adaptive.t11;
    };
    {
      id = "T12";
      title = "Deterministic read/write baseline (Moir-Anderson grid)";
      claim = "deterministic renaming from read/write registers: Theta(n) steps, Theta(n^2) names";
      run = Exp_splitter.t12;
    };
    {
      id = "T13";
      title = "Simulator vs multicore cross-check";
      claim = "both backends satisfy the same lemma bounds on real OCaml 5 domains";
      run = Exp_multicore.t13;
    };
    {
      id = "T14";
      title = "Device answer-delay ablation";
      claim = "the tau-register's clocked answering costs only a constant slowdown (sec. II-C)";
      run = Exp_cadence.t14;
    };
    {
      id = "T15";
      title = "Long-lived renaming under churn";
      claim = "releasable names with O((1+eps)/eps) amortized probes per acquire (related work [13] reproduced on hardware TAS)";
      run = Exp_longlived.t15;
    };
    {
      id = "T16";
      title = "Lemma 3 constant ablation";
      claim = "c >= 2l+2 buys the w.h.p. margin: smaller c means fewer steps but more reserve traffic";
      run = Exp_csweep.t16;
    };
    {
      id = "T17";
      title = "Lease-based renaming service under churn";
      claim =
        "crashed clients' names are reclaimed by lease expiry + epoch fencing with zero double-grants; overload degrades to structured shed/timeout outcomes";
      run = Exp_service.t17;
    };
    {
      id = "F1";
      title = "Scaling shape fits";
      claim = "measured curves match the predicted asymptotic shapes";
      run = Exp_baselines.f1;
    };
    {
      id = "F2";
      title = "Lemma 6 round decay";
      claim = "unnamed after round i is at most n/2^i";
      run = Exp_loose.f2;
    };
    {
      id = "F3";
      title = "Namespace/step trade-off";
      claim = "l sweeps trade namespace slack against steps (Cor 7/9)";
      run = Exp_combined.f3;
    };
    {
      id = "F4";
      title = "Lemmas 6/8 at a million processes";
      claim = "the poly-double-logarithmic step budgets hold at n = 2^20 .. 2^22";
      run = Exp_multicore.f4;
    };
  ]

let find id =
  let id = String.lowercase_ascii id in
  List.find_opt (fun e -> String.lowercase_ascii e.id = id) all
