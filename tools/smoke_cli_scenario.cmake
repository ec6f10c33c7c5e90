# End-to-end smoke for the generic scenario driver, run as a ctest
# `cmake -P` script (see tools/CMakeLists.txt):
#
#   1. --list-scenarios names all built-in scenarios
#   2. a shallow cruise_control run exits 0
#   3. resuming an acasxu run from a cruise_control checkpoint is refused
#      with the dedicated exit code 4
#   4. --order above the Taylor series capacity (15) is a usage error
#      (exit 2)
#
# Required -D variables: VERIFY (binary), ACAS_NETS and CRUISE_NETS (network
# cache dirs), OUT (scratch directory).

foreach(var VERIFY ACAS_NETS CRUISE_NETS OUT)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "smoke_cli_scenario: pass -D${var}=...")
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

# 1. Every built-in scenario is listed.
run_cli(0 "--list-scenarios" ${VERIFY} --list-scenarios)
foreach(name acasxu cruise_control pendulum unicycle)
  if(NOT last_stdout MATCHES "${name}")
    message(FATAL_ERROR "--list-scenarios output is missing '${name}':\n${last_stdout}")
  endif()
endforeach()
message(STATUS "--list-scenarios names all built-in scenarios")

# 2. Shallow cruise_control run through the generic driver.
run_cli(0 "cruise_control shallow run" ${VERIFY} --scenario cruise_control
  --arcs 4 --headings 3 --depth 0 --steps 8 --m 2 --order 3
  --nets ${CRUISE_NETS} --threads 4 --quiet)

# 3. A checkpoint from one scenario must not resume another (exit 4). The
#    microscopic budget interrupts the cruise run immediately (exit 3).
run_cli(3 "budget-interrupted cruise run" ${VERIFY} --scenario cruise_control
  --arcs 4 --headings 3 --depth 0 --steps 8 --m 2 --order 3
  --nets ${CRUISE_NETS} --threads 4 --quiet --time-budget 0.000001
  --checkpoint ${OUT}/cruise_checkpoint.csv)
if(NOT EXISTS ${OUT}/cruise_checkpoint.csv)
  message(FATAL_ERROR "interrupted cruise run left no checkpoint file")
endif()
run_cli(4 "cross-scenario resume refused" ${VERIFY} --scenario acasxu --arcs 4 --headings 4
  --depth 0 --steps 10 --m 4 --order 3 --nets ${ACAS_NETS} --threads 4 --quiet
  --resume ${OUT}/cruise_checkpoint.csv)
message(STATUS "cross-scenario resume refused with exit code 4")

# 4. The integrator's Taylor order is capped at TaylorIntegrator::kMaxOrder.
run_cli(2 "--order 16 refused" ${VERIFY} --scenario cruise_control --order 16
  --nets ${CRUISE_NETS} --quiet)
message(STATUS "--order 16 refused with exit code 2")
