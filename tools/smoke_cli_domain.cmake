# End-to-end smoke for the domain axis (`--domain interval|symbolic|zonotope`),
# run as a ctest `cmake -P` script (see tools/CMakeLists.txt):
#
#   1. the default acasxu run and an explicit `--domain symbolic` run
#      produce byte-identical canonical reports (symbolic is the default)
#   2. a pendulum run under the zonotope domain completes with every leaf
#      proved-safe (no error-reachable rows)
#   3. the same pendulum workload under `--domain symbolic` (the box loop)
#      reports error-reachable leaves
#   4. a checkpoint taken under the zonotope domain refuses to resume under
#      symbolic (exit 4): the run fingerprint carries the domain
#   5. a checkpoint taken under `--strategy widest` refuses to resume under
#      the default all-dims strategy (exit 4), whose split factor would
#      weigh its leaves wrongly, and resumes under `--strategy widest`
#   6. an interval checkpoint refuses to resume under symbolic (exit 4)
#      and resumes under interval
#   7. the retired values `affine` and `box` are usage errors (exit 2)
#
# Required -D variables: VERIFY (binary), ACAS_NETS and PEND_NETS (network
# cache dirs), OUT (scratch directory).

foreach(var VERIFY ACAS_NETS PEND_NETS OUT)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "smoke_cli_domain: pass -D${var}=...")
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
  set(last_stdout "${stdout}" PARENT_SCOPE)
  message(STATUS "${log}: exit ${code} (as expected)")
endfunction()

# 1. `--domain symbolic` is the default: canonical reports byte-identical.
set(ACAS_FLAGS --scenario acasxu --arcs 4 --headings 4 --depth 0 --steps 10
    --m 4 --order 3 --nets ${ACAS_NETS} --threads 4 --quiet --canonical-report)
run_cli(0 "acasxu default domain" ${VERIFY} ${ACAS_FLAGS}
  --report ${OUT}/acas_default.csv)
run_cli(0 "acasxu explicit --domain symbolic" ${VERIFY} ${ACAS_FLAGS} --domain symbolic
  --report ${OUT}/acas_symbolic.csv)
execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
  ${OUT}/acas_default.csv ${OUT}/acas_symbolic.csv RESULT_VARIABLE same)
if(NOT same EQUAL 0)
  message(FATAL_ERROR "canonical acasxu report differs from --domain symbolic")
endif()
message(STATUS "default and --domain symbolic canonical reports byte-identical")

# 2./3. The pendulum discriminates the domains on the same partition and
#       budget: zonotope proves every leaf, symbolic reports error-reachable ones.
set(PEND_FLAGS --scenario pendulum --nets ${PEND_NETS} --threads 4 --quiet
    --canonical-report)
run_cli(0 "pendulum --domain zonotope" ${VERIFY} ${PEND_FLAGS} --domain zonotope
  --report ${OUT}/pendulum_zonotope.csv)
file(READ ${OUT}/pendulum_zonotope.csv zonotope_report)
if(zonotope_report MATCHES "error-reachable")
  message(FATAL_ERROR "zonotope pendulum run has error-reachable leaves:\n${zonotope_report}")
endif()
if(NOT zonotope_report MATCHES "proved-safe")
  message(FATAL_ERROR "zonotope pendulum run proved nothing:\n${zonotope_report}")
endif()
run_cli(0 "pendulum --domain symbolic" ${VERIFY} ${PEND_FLAGS} --domain symbolic
  --report ${OUT}/pendulum_symbolic.csv)
file(READ ${OUT}/pendulum_symbolic.csv box_report)
if(NOT box_report MATCHES "error-reachable")
  message(FATAL_ERROR "symbolic pendulum run shows no error-reachable leaves — the\n"
                      "loop domain is not being threaded through:\n${box_report}")
endif()
message(STATUS "pendulum verifies under zonotope and fails under symbolic")

# 4. The run fingerprint carries the domain, so a zonotope checkpoint must
#    not resume under symbolic. The microscopic budget interrupts the run
#    immediately (exit 3).
run_cli(3 "budget-interrupted zonotope run" ${VERIFY} ${PEND_FLAGS} --domain zonotope
  --time-budget 0.000001 --checkpoint ${OUT}/pendulum_checkpoint.csv)
if(NOT EXISTS ${OUT}/pendulum_checkpoint.csv)
  message(FATAL_ERROR "interrupted pendulum run left no checkpoint file")
endif()
run_cli(4 "cross-domain resume refused" ${VERIFY} ${PEND_FLAGS} --domain symbolic
  --resume ${OUT}/pendulum_checkpoint.csv)
message(STATUS "cross-domain resume refused with exit code 4")

# 5. The run fingerprint carries the split strategy too.
run_cli(3 "budget-interrupted widest-dim run" ${VERIFY} ${PEND_FLAGS} --strategy widest
  --time-budget 0.000001 --checkpoint ${OUT}/pendulum_widest_checkpoint.csv)
run_cli(4 "cross-strategy resume refused" ${VERIFY} ${PEND_FLAGS}
  --resume ${OUT}/pendulum_widest_checkpoint.csv)
run_cli(0 "same-strategy resume" ${VERIFY} ${PEND_FLAGS} --strategy widest
  --resume ${OUT}/pendulum_widest_checkpoint.csv)
message(STATUS "cross-strategy resume refused with exit code 4, same-strategy resume completes")

# 6. The fingerprint tells the two box-loop values apart.
run_cli(3 "budget-interrupted interval run" ${VERIFY} ${PEND_FLAGS} --domain interval
  --time-budget 0.000001 --checkpoint ${OUT}/pendulum_interval_checkpoint.csv)
run_cli(4 "interval checkpoint refused under symbolic" ${VERIFY} ${PEND_FLAGS}
  --domain symbolic --resume ${OUT}/pendulum_interval_checkpoint.csv)
run_cli(0 "interval checkpoint resumes under interval" ${VERIFY} ${PEND_FLAGS}
  --domain interval --resume ${OUT}/pendulum_interval_checkpoint.csv)
message(STATUS "interval checkpoint refused under symbolic (exit 4), resumes under interval")

# 7. One flag, one axis.
foreach(retired affine box)
  run_cli(2 "retired --domain ${retired}" ${VERIFY} ${ACAS_FLAGS} --domain ${retired})
endforeach()
message(STATUS "--domain affine and --domain box exit 2")
