# ctest driver for bench_paper (registered in CMakeLists.txt as
# bench_paper_test). The fast experiments E5, E8 and E16 must run clean —
# E16 exits 1 when an adaptive budget fails to converge or lands more than
# 3 eps from the chain limit — and an unknown experiment name must exit 2.
execute_process(COMMAND ${BENCH_PAPER} e5 e8 e16 RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "bench_paper e5 e8 e16 exited ${rc}, expected 0")
endif()
execute_process(COMMAND ${BENCH_PAPER} nosuch RESULT_VARIABLE rc)
if(NOT rc EQUAL 2)
  message(FATAL_ERROR "bench_paper nosuch exited ${rc}, expected 2")
endif()
