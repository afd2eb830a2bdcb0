# A world whose ranks raise logs "rank N raised; aborting world" once per
# raising rank, in rank order, after the run stops, so the stderr of an
# aborted run does not depend on which worker caught its exception first.
set(ENV{MPISECT_WORKERS} 4)
foreach(i RANGE 1 5)
  execute_process(
    COMMAND ${CHECK} --scenario deadlock
    OUTPUT_QUIET
    ERROR_VARIABLE err
    RESULT_VARIABLE rc)
  if(NOT err MATCHES "rank 0 raised; aborting world")
    message(FATAL_ERROR "run ${i}: no abort line on stderr (exit ${rc}):\n${err}")
  endif()
  if(i EQUAL 1)
    set(first_err "${err}")
    set(first_rc "${rc}")
  elseif(NOT err STREQUAL first_err OR NOT rc STREQUAL first_rc)
    message(FATAL_ERROR
      "run ${i} differs from run 1 (exit ${rc} vs ${first_rc}):\n"
      "--- run 1\n${first_err}--- run ${i}\n${err}")
  endif()
endforeach()
