# End-to-end telemetry CLI check:
#   1. sampler exports are byte-identical across scheduler worker counts
#      (MPISECT_WORKERS=1 vs 4) — the zero-perturbation/determinism
#      contract, observed through the CLI rather than the unit suite
#   2. the counters export is byte-identical too
#   3. --post re-renders a saved CSV and reports the same binding section
#   4. every other export format produces non-empty, well-formed output;
#      prom is the one metrics page (registry + obs_* series)
execute_process(
  COMMAND ${CMAKE_COMMAND} -E env MPISECT_WORKERS=1
          ${TOP} --app convolution --ranks 8 --steps 40 --seed 99
          --model nehalem-cluster --no-live --export csv --out telem_w1.csv
  RESULT_VARIABLE rc1)
execute_process(
  COMMAND ${CMAKE_COMMAND} -E env MPISECT_WORKERS=4
          ${TOP} --app convolution --ranks 8 --steps 40 --seed 99
          --model nehalem-cluster --no-live --export csv --out telem_w4.csv
  RESULT_VARIABLE rc2)
if(NOT rc1 EQUAL 0 OR NOT rc2 EQUAL 0)
  message(FATAL_ERROR "mpisect-top export runs failed (${rc1}/${rc2})")
endif()
execute_process(
  COMMAND ${CMAKE_COMMAND} -E compare_files telem_w1.csv telem_w4.csv
  RESULT_VARIABLE same)
if(NOT same EQUAL 0)
  message(FATAL_ERROR "timeline CSV differs across MPISECT_WORKERS=1/4")
endif()

execute_process(
  COMMAND ${CMAKE_COMMAND} -E env MPISECT_WORKERS=1
          ${TOP} --app convolution --ranks 8 --steps 40 --seed 99
          --model nehalem-cluster --no-live --export counters
          --out counters_w1.csv
  RESULT_VARIABLE rc3)
execute_process(
  COMMAND ${CMAKE_COMMAND} -E env MPISECT_WORKERS=4
          ${TOP} --app convolution --ranks 8 --steps 40 --seed 99
          --model nehalem-cluster --no-live --export counters
          --out counters_w4.csv
  RESULT_VARIABLE rc4)
if(NOT rc3 EQUAL 0 OR NOT rc4 EQUAL 0)
  message(FATAL_ERROR "counters export runs failed (${rc3}/${rc4})")
endif()
execute_process(
  COMMAND ${CMAKE_COMMAND} -E compare_files counters_w1.csv counters_w4.csv
  RESULT_VARIABLE same2)
if(NOT same2 EQUAL 0)
  message(FATAL_ERROR "counters CSV differs across MPISECT_WORKERS=1/4")
endif()

execute_process(
  COMMAND ${TOP} --post telem_w1.csv
  OUTPUT_VARIABLE post_out
  RESULT_VARIABLE rc5)
if(NOT rc5 EQUAL 0)
  message(FATAL_ERROR "--post render failed (${rc5})")
endif()
if(NOT post_out MATCHES "Eq. 6 binding section:")
  message(FATAL_ERROR "--post render lacks the binding line:\n${post_out}")
endif()

foreach(fmt json chrome prom)
  execute_process(
    COMMAND ${TOP} --app convolution --ranks 8 --steps 40 --seed 99
            --model nehalem-cluster --no-live --export ${fmt}
            --out telem.${fmt}
    RESULT_VARIABLE rc_fmt)
  if(NOT rc_fmt EQUAL 0)
    message(FATAL_ERROR "export ${fmt} failed (${rc_fmt})")
  endif()
endforeach()
file(READ telem.json json_out)
if(NOT json_out MATCHES "\"provenance\"")
  message(FATAL_ERROR "JSON export missing provenance")
endif()
file(READ telem.chrome chrome_out)
if(NOT chrome_out MATCHES "traceEvents")
  message(FATAL_ERROR "chrome export missing traceEvents")
endif()
file(READ telem.prom prom_out)
if(NOT prom_out MATCHES "# TYPE mpisect_mpi_msgs_sent counter")
  message(FATAL_ERROR "prometheus export missing typed counter")
endif()
# The same registry + obs_* page serve's stats op answers: scheduler
# series come from the obs counters, not a second hand-written block.
if(NOT prom_out MATCHES "obs_sched_switches")
  message(FATAL_ERROR "prometheus export missing obs_sched_switches")
endif()
if(prom_out MATCHES "mpisect_sched_")
  message(FATAL_ERROR "prometheus export still has mpisect_sched_ series")
endif()
