# Reproduction harnesses: `repro` renders every paper figure/table, the
# scheme shootout, the ablations and the extension studies from one pooled
# sweep (`repro --fig <id>`, e.g. `--fig ablation,cbt,underutilized`).
# micro_throughput gates the cache and SIMD kernels against floors compiled
# into it, and micro_obs_overhead the profiler's overhead; perfbench/ is the
# end-to-end benchmark.  See DESIGN.md Sec. 4 for the experiment index.
# All binaries land in ${CMAKE_BINARY_DIR}/bench.

function(delta_bench name)
  add_executable(${name} ${CMAKE_SOURCE_DIR}/bench/${name}.cpp)
  target_link_libraries(${name} PRIVATE
    delta_sim delta_core delta_alloc delta_workload delta_umon delta_noc
    delta_mem delta_obs delta_common)
  target_include_directories(${name} PRIVATE ${CMAKE_SOURCE_DIR}/bench)
  set_target_properties(${name} PROPERTIES
    RUNTIME_OUTPUT_DIRECTORY ${CMAKE_BINARY_DIR}/bench)
endfunction()

delta_bench(repro)
delta_bench(micro_obs_overhead)
delta_bench(micro_throughput)

