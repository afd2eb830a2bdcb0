# End-to-end trace CLI check:
#   1. two same-seed records are byte-identical files
#   2. same-model replay reproduces the recorded footer (--verify)
#   3. a what-if replay on another preset completes and emits CSV
#   4. corrupt / truncated / wrong-endian input exits nonzero with a
#      diagnostic, never an abort
execute_process(
  COMMAND ${REPLAY} record --app convolution --ranks 8 --steps 20
          --model nehalem-cluster --seed 77 --out det_a.mpst
  RESULT_VARIABLE rc1)
execute_process(
  COMMAND ${REPLAY} record --app convolution --ranks 8 --steps 20
          --model nehalem-cluster --seed 77 --out det_b.mpst
  RESULT_VARIABLE rc2)
if(NOT rc1 EQUAL 0 OR NOT rc2 EQUAL 0)
  message(FATAL_ERROR "mpisect-replay record failed (${rc1}/${rc2})")
endif()
execute_process(
  COMMAND ${CMAKE_COMMAND} -E compare_files det_a.mpst det_b.mpst
  RESULT_VARIABLE same)
if(NOT same EQUAL 0)
  message(FATAL_ERROR "same-seed records are not byte-identical")
endif()

execute_process(
  COMMAND ${REPLAY} replay --trace det_a.mpst --verify
  OUTPUT_VARIABLE verify_out
  RESULT_VARIABLE rc3)
if(NOT rc3 EQUAL 0)
  message(FATAL_ERROR "replay --verify failed (${rc3}):\n${verify_out}")
endif()
if(NOT verify_out MATCHES "verify OK")
  message(FATAL_ERROR "verify did not report OK:\n${verify_out}")
endif()

execute_process(
  COMMAND ${REPLAY} replay --trace det_a.mpst --model knl
          --compute-scale auto --export csv
  OUTPUT_VARIABLE whatif_out
  RESULT_VARIABLE rc4)
if(NOT rc4 EQUAL 0)
  message(FATAL_ERROR "what-if replay failed (${rc4})")
endif()
if(NOT whatif_out MATCHES "section,comm")
  message(FATAL_ERROR "what-if CSV missing header:\n${whatif_out}")
endif()

# Robustness: corrupt input (truncation at every byte offset is covered by
# the test_trace_format unit suite; here we exercise the CLI exit contract).
file(WRITE bad_magic.mpst "NOPE this is not a trace file")
execute_process(
  COMMAND ${REPLAY} info --trace bad_magic.mpst
  ERROR_VARIABLE bad_err
  RESULT_VARIABLE rc5)
if(rc5 EQUAL 0)
  message(FATAL_ERROR "bad-magic input did not fail")
endif()
if(NOT bad_err MATCHES "mpisect-replay:")
  message(FATAL_ERROR "bad-magic failure lacks a diagnostic:\n${bad_err}")
endif()
execute_process(
  COMMAND ${REPLAY} info --trace no_such_file.mpst
  ERROR_VARIABLE miss_err
  RESULT_VARIABLE rc6)
if(rc6 EQUAL 0)
  message(FATAL_ERROR "missing input did not fail")
endif()
