# End-to-end smoke for the perf-artifact pipeline, run as a ctest
# `cmake -P` script (see tools/CMakeLists.txt):
#
#   1. a live CLI run streams a valid NDJSON heartbeat (--progress-json),
#      writes a non-empty folded span profile (--profile-out) and a valid
#      "nncs-bench v2" artifact (--metrics-out)
#   2. the fresh artifact self-compares clean (exit 0)
#   3. the committed fixture pair with doubled wall numbers trips the
#      regression gate (exit 1) under a tight threshold
#   4. the committed fixture with a drifted canonical counter trips the
#      mismatch gate (exit 2), which dominates
#
# The fresh-run-vs-committed-baseline compare is ctest Smoke.PerfGate
# (tools/perf_gate.cmake).
#
# Required -D variables: COMPARE (nncs_bench_compare), TRACE_CHECK
# (nncs_trace_check), VERIFY (nncs_verify), NETS (acasxu network cache),
# BASELINES (source bench/baselines dir), OUT (scratch directory).

foreach(var COMPARE TRACE_CHECK VERIFY NETS BASELINES OUT)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "smoke_bench_compare: pass -D${var}=...")
  endif()
endforeach()

file(MAKE_DIRECTORY ${OUT})

function(run_cli expected_code log)
  execute_process(COMMAND ${ARGN}
    RESULT_VARIABLE code OUTPUT_VARIABLE stdout ERROR_VARIABLE stderr)
  if(NOT code EQUAL expected_code)
    message(FATAL_ERROR "${log}: expected exit ${expected_code}, got ${code}\n"
                        "stdout:\n${stdout}\nstderr:\n${stderr}")
  endif()
  message(STATUS "${log}: exit ${code} (as expected)")
endfunction()

# 1. Live run: heartbeat NDJSON validates, folded profile and artifact are
#    written.
set(FRESH ${OUT}/live/BENCH_nncs_verify_acasxu.json)
run_cli(0 "live run with heartbeat + profile + artifact" ${VERIFY} --scenario acasxu
  --arcs 4 --headings 4 --depth 0 --steps 10 --m 4 --order 3 --threads 4
  --nets ${NETS} --quiet --artifact-dir ${OUT}/live
  --progress-json heartbeat.ndjson --profile-out profile.folded
  --metrics-out BENCH_nncs_verify_acasxu.json)
run_cli(0 "heartbeat stream validation" ${TRACE_CHECK} --heartbeat
  ${OUT}/live/heartbeat.ndjson --min-lines 2)
file(READ ${OUT}/live/profile.folded folded)
if(folded STREQUAL "")
  message(FATAL_ERROR "profile.folded is empty")
endif()
if(NOT folded MATCHES "cell.analyze")
  message(FATAL_ERROR "profile.folded has no cell.analyze span:\n${folded}")
endif()
message(STATUS "heartbeat + folded profile written and valid")
run_cli(0 "artifact schema validation" ${TRACE_CHECK} --artifact ${FRESH})

# 2. Self-compare is always clean, and --json emits a machine report.
run_cli(0 "self-compare" ${COMPARE} --quiet --json ${OUT}/self_compare.json
  ${FRESH} ${FRESH})
file(READ ${OUT}/self_compare.json self_json)
if(NOT self_json MATCHES "nncs-bench-compare v1")
  message(FATAL_ERROR "--json output is missing the compare schema:\n${self_json}")
endif()

# 3. Injected 2x wall regression (committed fixture pair): exit 1 under a
#    50% gate.
run_cli(1 "2x wall regression detected" ${COMPARE} --quiet --max-regress 50
  ${BASELINES}/fixtures/fixture_base.json ${BASELINES}/fixtures/fixture_regressed_2x.json)

# 4. Drifted canonical counter: exit 2 even though wall clock is identical.
run_cli(2 "canonical mismatch detected" ${COMPARE} --quiet --max-regress 50
  ${BASELINES}/fixtures/fixture_base.json ${BASELINES}/fixtures/fixture_mismatch.json)
