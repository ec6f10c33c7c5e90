# Argument validation of nncs_flowpipe_dump, run as a ctest `cmake -P`
# script (see tools/CMakeLists.txt): every malformed positional argument,
# and a fifth one, exits 2 with the usage line before any network is loaded.
#
# Required -D variable: DUMP (binary).

if(NOT DEFINED DUMP)
  message(FATAL_ERROR "smoke_flowpipe_dump: pass -DDUMP=...")
endif()

foreach(args "0.6;0.5;abc" "0.6x" "0.6;nan" "0.6;0.5;0" "0.6;0.5;20;2.5" "0.6;0.5;20;10;1")
  execute_process(COMMAND ${DUMP} ${args}
    RESULT_VARIABLE code OUTPUT_VARIABLE stdout ERROR_VARIABLE stderr)
  string(REPLACE ";" " " shown "${args}")
  if(NOT code EQUAL 2 OR NOT stderr MATCHES "usage: ")
    message(FATAL_ERROR "nncs_flowpipe_dump ${shown}: expected exit 2 with the usage line, "
                        "got ${code}\nstdout:\n${stdout}\nstderr:\n${stderr}")
  endif()
  message(STATUS "nncs_flowpipe_dump ${shown}: exit 2 (as expected)")
endforeach()
