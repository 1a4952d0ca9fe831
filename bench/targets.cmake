# Bench binaries land in build/bench/ so that `for b in build/bench/*` runs
# exactly the benchmark executables.
set(DWQA_BENCH_DIR ${CMAKE_BINARY_DIR}/bench)

function(dwqa_bench name)
  add_executable(${name} ${CMAKE_SOURCE_DIR}/bench/${name}.cpp)
  target_link_libraries(${name} PRIVATE dwqa_integration)
  target_include_directories(${name} PRIVATE ${CMAKE_SOURCE_DIR})
  # The host fingerprint bench_json.h writes into the artifact.
  target_compile_definitions(${name} PRIVATE
    DWQA_BENCH_BUILD_TYPE="${CMAKE_BUILD_TYPE}"
    DWQA_BENCH_COMPILER="${CMAKE_CXX_COMPILER_ID} ${CMAKE_CXX_COMPILER_VERSION}")
  set_target_properties(${name} PROPERTIES
    RUNTIME_OUTPUT_DIRECTORY ${DWQA_BENCH_DIR})
endfunction()

function(dwqa_microbench name)
  dwqa_bench(${name})
  target_link_libraries(${name} PRIVATE benchmark::benchmark)
endfunction()

dwqa_bench(bench_table1_pipeline)
dwqa_bench(bench_fig1_uml_model)
dwqa_bench(bench_fig2_ontology)
dwqa_bench(bench_fig3_aliqan_phases)
dwqa_bench(bench_fig4_prose_extraction)
dwqa_bench(bench_fig5_table_extraction)
dwqa_bench(bench_ir_vs_qa)
dwqa_bench(bench_ontology_enrichment)
dwqa_bench(bench_dw_feed_bi)
dwqa_bench(bench_feed_resilience)
dwqa_bench(bench_degradation)
dwqa_bench(bench_answer_taxonomy)
dwqa_bench(bench_multidim_ir)
dwqa_bench(bench_serve_load)
target_link_libraries(bench_serve_load PRIVATE dwqa_serve)
dwqa_bench(bench_recovery)
dwqa_bench(bench_federation)
dwqa_microbench(bench_micro_text)
dwqa_microbench(bench_micro_qa)
dwqa_microbench(bench_micro_ir)
dwqa_microbench(bench_micro_olap)
dwqa_microbench(bench_micro_ontology)

# Fast perf smokes: `ctest -L perf` runs the fig3 phase study in --smoke
# mode plus one repetition of each microbench, all teeing into the shared
# bench-JSON artifact (BENCH_phase3.json in the build dir unless
# DWQA_BENCH_JSON overrides it). scripts/check.sh runs this label so a
# broken bench or reporter fails CI, not just the nightly sweep. Each smoke
# runs serially: its timings feed scripts/bench_compare.py's gate, and a
# smoke timed beside other tests under `ctest -j` measures them too.
add_test(NAME perf_fig3_aliqan_phases_smoke
  COMMAND bench_fig3_aliqan_phases --smoke
  WORKING_DIRECTORY ${CMAKE_BINARY_DIR})
set_tests_properties(perf_fig3_aliqan_phases_smoke
  PROPERTIES LABELS perf RUN_SERIAL TRUE)
add_test(NAME perf_serve_load_smoke
  COMMAND bench_serve_load --smoke
  WORKING_DIRECTORY ${CMAKE_BINARY_DIR})
set_tests_properties(perf_serve_load_smoke
  PROPERTIES LABELS perf RUN_SERIAL TRUE)
add_test(NAME perf_recovery_smoke
  COMMAND bench_recovery --smoke
  WORKING_DIRECTORY ${CMAKE_BINARY_DIR})
set_tests_properties(perf_recovery_smoke
  PROPERTIES LABELS perf RUN_SERIAL TRUE)
add_test(NAME perf_federation_smoke
  COMMAND bench_federation --smoke
  WORKING_DIRECTORY ${CMAKE_BINARY_DIR})
set_tests_properties(perf_federation_smoke
  PROPERTIES LABELS perf RUN_SERIAL TRUE)
foreach(micro bench_micro_text bench_micro_qa bench_micro_ir
        bench_micro_olap bench_micro_ontology)
  set(filter)
  if(micro STREQUAL bench_micro_olap)
    # The smoke keeps the OLAP sweep at <= 10k facts: the 100k and 1M
    # points (/100000, /1000000) run only in the full bench.
    set(filter "--benchmark_filter=-/10{5,6}$")
  endif()
  add_test(NAME perf_${micro}_smoke
    COMMAND ${micro} --benchmark_min_time=0.01 ${filter}
    WORKING_DIRECTORY ${CMAKE_BINARY_DIR})
  set_tests_properties(perf_${micro}_smoke
    PROPERTIES LABELS perf RUN_SERIAL TRUE)
endforeach()
