# Figure-output golden check, run via `cmake -P` from ctest:
#
#   cmake -DBENCH=<figure bench binary> -DGOLDEN=<expected stdout file>
#         -P run_figure_golden.cmake
#
# Runs one figure bench and compares its stdout byte for byte with the
# checked-in golden (tests/data/figures/). On a mismatch both texts are
# printed. A change that moves a figure on purpose re-captures its golden
# and says why.

if(NOT DEFINED BENCH OR NOT DEFINED GOLDEN)
  message(FATAL_ERROR "need -DBENCH=<binary> and -DGOLDEN=<file>")
endif()

execute_process(
  COMMAND "${BENCH}"
  RESULT_VARIABLE run_result
  OUTPUT_VARIABLE actual
  ERROR_VARIABLE run_errors)
if(NOT run_result EQUAL 0)
  message(FATAL_ERROR "${BENCH} failed (${run_result}):\n${run_errors}")
endif()

file(READ "${GOLDEN}" expected)
if(NOT actual STREQUAL expected)
  # Plain message() prints verbatim; FATAL_ERROR would re-wrap the texts.
  message("--- golden ---\n${expected}--- actual ---\n${actual}--- end ---")
  message(FATAL_ERROR "${BENCH} stdout differs from ${GOLDEN}")
endif()

message(STATUS "figure golden ok: ${GOLDEN}")
