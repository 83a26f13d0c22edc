let () =
  Alcotest.run "asr_repro"
    [
      ("oid/value", Test_value.suite);
      ("schema", Test_schema.suite);
      ("store", Test_store.suite);
      ("txn", Test_txn.suite);
      ("serial", Test_serial.suite);
      ("durability", Test_durability.suite);
      ("integrity", Test_integrity.suite);
      ("path", Test_path.suite);
      ("relation", Test_relation.suite);
      ("extension", Test_extension.suite);
      ("storage", Test_storage.suite);
      ("clustering", Test_clustering.suite);
      ("bptree", Test_bptree.suite);
      ("decomposition", Test_decomposition.suite);
      ("asr", Test_asr.suite);
      ("exec", Test_exec.suite);
      ("engine", Test_engine.suite);
      ("maintenance", Test_maintenance.suite);
      ("maintenance-batch", Test_maintenance_batch.suite);
      ("live-counts", Test_live.suite);
      ("share", Test_share.suite);
      ("baselines", Test_baselines.suite);
      ("profiler", Test_profiler.suite);
      ("workload", Test_workload.suite);
      ("autodesign", Test_autodesign.suite);
      ("edge", Test_edge.suite);
      ("display", Test_display.suite);
      ("gql", Test_gql.suite);
      ("costmodel", Test_costmodel.suite);
      ("cost-queries", Test_cost_queries.suite);
      ("parallel", Test_parallel.suite);
      ("resilience", Test_resilience.suite);
      ("replication", Test_replication.suite);
      ("shard", Test_shard.suite);
    ]
