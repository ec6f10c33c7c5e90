# The perf gate, run as a `cmake -P` script: the one list of the workloads
# behind the committed bench/baselines/ artifacts. Each leg is an
# `nncs_verify --metrics-out` run at pinned flags and thread count; one
# `nncs_bench_compare --baseline-dir` call then checks every fresh artifact
# against the committed file of the same name. Canonical sections (results
# and the integrator, NN and join work counters) must match exactly (any
# drift exits 2); wall rows may regress by at most MAX_REGRESS percent.
#
#   acasxu_symbolic, acasxu_zonotope   6x4 cells, depth 1, q=10, M=4, gamma=5,
#                                      2 threads: the paper's loop in both
#                                      loop domains
#   pendulum_symbolic, pendulum_zonotope  scenario defaults, 1 thread: the
#                                      only gate on the affine ODE step
#   cruise_control                     scenario defaults, 2 threads: gamma =
#                                      24, where Resize does the most work
#   unicycle                           scenario defaults, 2 threads: the
#                                      sin/cos Taylor path of a third plant
#
# ctest `Smoke.PerfGate` runs it with MAX_REGRESS=1000000 (canonical
# sections only, in every build type); CI's Release perf-gate job and
# tools/ci_local.sh run it with MAX_REGRESS=300. The artifacts are written
# before the compare, so regenerating the baselines is one run of this
# script into a scratch OUT, then a copy of the files meant to change into
# bench/baselines/.
#
# Required -D variables: VERIFY (nncs_verify), COMPARE (nncs_bench_compare),
# SOURCE (source tree: its network caches and bench/baselines), OUT
# (directory for the fresh artifacts), MAX_REGRESS (wall gate, percent).

foreach(var VERIFY COMPARE SOURCE OUT MAX_REGRESS)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "perf_gate: pass -D${var}=...")
  endif()
endforeach()

file(MAKE_DIRECTORY ${OUT})

set(artifacts "")
function(leg name)
  set(artifact ${OUT}/BENCH_nncs_verify_${name}.json)
  execute_process(COMMAND ${VERIFY} ${ARGN} --quiet --metrics-out ${artifact}
    RESULT_VARIABLE code OUTPUT_VARIABLE stdout ERROR_VARIABLE stderr)
  if(NOT code EQUAL 0)
    message(FATAL_ERROR "perf_gate: leg ${name} exited ${code}\n"
                        "stdout:\n${stdout}\nstderr:\n${stderr}")
  endif()
  message(STATUS "${name}: ${stdout}")
  set(artifacts ${artifacts} ${artifact} PARENT_SCOPE)
endfunction()

set(ACAS --scenario acasxu --arcs 6 --headings 4 --depth 1 --steps 10 --m 4 --gamma 5
    --threads 2 --nets ${SOURCE}/acasxu_nets_cache)
set(PENDULUM --scenario pendulum --threads 1 --nets ${SOURCE}/pendulum_nets_cache)
leg(acasxu_symbolic ${ACAS} --domain symbolic)
leg(acasxu_zonotope ${ACAS} --domain zonotope)
leg(pendulum_symbolic ${PENDULUM} --domain symbolic)
leg(pendulum_zonotope ${PENDULUM} --domain zonotope)
leg(cruise_control --scenario cruise_control --threads 2
    --nets ${SOURCE}/cruise_control_nets_cache)
leg(unicycle --scenario unicycle --threads 2 --nets ${SOURCE}/unicycle_nets_cache)

execute_process(COMMAND ${COMPARE} --quiet --max-regress ${MAX_REGRESS}
  --baseline-dir ${SOURCE}/bench/baselines ${artifacts}
  RESULT_VARIABLE code)
if(NOT code EQUAL 0)
  message(FATAL_ERROR "perf_gate: nncs_bench_compare exited ${code} "
                      "(1 wall regression, 2 canonical mismatch, 3 I/O)")
endif()
message(STATUS "perf gate clean; the fresh artifacts are in ${OUT}")
