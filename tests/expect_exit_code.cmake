# Runs PROG with ARGS (one space-separated string) and fails unless it exits
# with EXPECTED:
#   cmake -DPROG=quickstart "-DARGS=--sim-threads -1" -DEXPECTED=2 -P expect_exit_code.cmake
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${PROG}" ${args} RESULT_VARIABLE rc)
if(NOT rc EQUAL EXPECTED)
  message(FATAL_ERROR "${PROG} ${ARGS}: expected exit code ${EXPECTED}, got '${rc}'")
endif()
