# End-to-end offline-analyzer determinism check:
#   1. traces recorded under MPISECT_WORKERS=1 vs 4 analyze to
#      byte-identical JSON reports (record + analyze both deterministic)
#   2. the race and latent-deadlock fixtures' reports are byte-identical
#      across worker counts
#   3. exit-code contract: findings -> 2, clean -> 0, corrupt trace -> 1
execute_process(
  COMMAND ${CMAKE_COMMAND} -E env MPISECT_WORKERS=1
          ${REPLAY} record --app convolution --ranks 8 --steps 20
          --model nehalem-cluster --seed 77 --out an_conv_w1.mpst
  RESULT_VARIABLE rc1)
execute_process(
  COMMAND ${CMAKE_COMMAND} -E env MPISECT_WORKERS=4
          ${REPLAY} record --app convolution --ranks 8 --steps 20
          --model nehalem-cluster --seed 77 --out an_conv_w4.mpst
  RESULT_VARIABLE rc2)
if(NOT rc1 EQUAL 0 OR NOT rc2 EQUAL 0)
  message(FATAL_ERROR "mpisect-replay record failed (${rc1}/${rc2})")
endif()
execute_process(
  COMMAND ${ANALYZE} --trace an_conv_w1.mpst --json --out an_conv_w1.json
  RESULT_VARIABLE rc3)
execute_process(
  COMMAND ${ANALYZE} --trace an_conv_w4.mpst --json --out an_conv_w4.json
  RESULT_VARIABLE rc4)
if(NOT rc3 EQUAL 0 OR NOT rc4 EQUAL 0)
  message(FATAL_ERROR
          "analyze failed or found findings on convolution (${rc3}/${rc4})")
endif()
execute_process(
  COMMAND ${CMAKE_COMMAND} -E compare_files an_conv_w1.json an_conv_w4.json
  RESULT_VARIABLE same1)
if(NOT same1 EQUAL 0)
  message(FATAL_ERROR "analyzer JSON differs across MPISECT_WORKERS=1/4")
endif()

# Race fixture: workers 1 vs 4. Exit code must be 2 (findings reported).
execute_process(
  COMMAND ${CMAKE_COMMAND} -E env MPISECT_WORKERS=1
          ${ANALYZE} --scenario race --json --out an_race_w1.json
  RESULT_VARIABLE rc5)
execute_process(
  COMMAND ${CMAKE_COMMAND} -E env MPISECT_WORKERS=4
          ${ANALYZE} --scenario race --json --out an_race_w4.json
  RESULT_VARIABLE rc6)
if(NOT rc5 EQUAL 2 OR NOT rc6 EQUAL 2)
  message(FATAL_ERROR "race fixture did not exit 2 (${rc5}/${rc6})")
endif()
execute_process(
  COMMAND ${CMAKE_COMMAND} -E compare_files an_race_w1.json an_race_w4.json
  RESULT_VARIABLE same2)
if(NOT same2 EQUAL 0)
  message(FATAL_ERROR "race report differs across MPISECT_WORKERS=1/4")
endif()

# Latent-deadlock fixture: workers 1 vs 4.
execute_process(
  COMMAND ${CMAKE_COMMAND} -E env MPISECT_WORKERS=1
          ${ANALYZE} --scenario latent-deadlock --json --out an_ld_w1.json
  RESULT_VARIABLE rc8)
execute_process(
  COMMAND ${CMAKE_COMMAND} -E env MPISECT_WORKERS=4
          ${ANALYZE} --scenario latent-deadlock --json --out an_ld_w4.json
  RESULT_VARIABLE rc9)
if(NOT rc8 EQUAL 2 OR NOT rc9 EQUAL 2)
  message(FATAL_ERROR
          "latent-deadlock fixture did not exit 2 (${rc8}/${rc9})")
endif()
execute_process(
  COMMAND ${CMAKE_COMMAND} -E compare_files an_ld_w1.json an_ld_w4.json
  RESULT_VARIABLE same4)
if(NOT same4 EQUAL 0)
  message(FATAL_ERROR
          "latent-deadlock report differs across MPISECT_WORKERS=1/4")
endif()

# Exit-code contract: clean fixture -> 0, corrupt trace -> 1 + diagnostic.
execute_process(
  COMMAND ${ANALYZE} --scenario clean
  OUTPUT_VARIABLE clean_out
  RESULT_VARIABLE rc10)
if(NOT rc10 EQUAL 0)
  message(FATAL_ERROR "clean fixture did not exit 0 (${rc10}):\n${clean_out}")
endif()
file(WRITE an_bad.mpst "NOPE this is not a trace file")
execute_process(
  COMMAND ${ANALYZE} --trace an_bad.mpst
  ERROR_VARIABLE bad_err
  RESULT_VARIABLE rc11)
if(rc11 EQUAL 0)
  message(FATAL_ERROR "corrupt trace did not fail")
endif()
if(NOT bad_err MATCHES "mpisect-analyze:")
  message(FATAL_ERROR "corrupt-trace failure lacks a diagnostic:\n${bad_err}")
endif()
