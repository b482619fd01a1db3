# Checks that the hot kernels start at 0 mod 64 in a linked binary, as
# LATTE_KERNEL_ALIGN (src/kernels/code_align.h) sets them. Usage:
#
#   cmake -DNM=<nm> -DBINARY=<linked binary> -P kernel_alignment.cmake
execute_process(COMMAND ${NM} -C ${BINARY}
                OUTPUT_VARIABLE Symbols RESULT_VARIABLE Status)
if(NOT Status EQUAL 0)
  message(FATAL_ERROR "${NM} failed on ${BINARY}")
endif()
foreach(Fn sgemm im2colRows col2imRows maxPoolFwdRows maxPoolBwdRows)
  if(NOT Symbols MATCHES "([0-9a-f]+) T latte::kernels::${Fn}\\(")
    message(FATAL_ERROR "latte::kernels::${Fn} is not defined in ${BINARY}")
  endif()
  set(Addr ${CMAKE_MATCH_1})
  string(LENGTH ${Addr} Len)
  math(EXPR LowStart "${Len} - 2")
  string(SUBSTRING ${Addr} ${LowStart} 2 Low)
  math(EXPR Offset "0x${Low} % 64")
  if(Offset EQUAL 0)
    message(STATUS "latte::kernels::${Fn} at 0x${Addr}")
  else()
    message(SEND_ERROR
            "latte::kernels::${Fn} at 0x${Addr} starts ${Offset} bytes past "
            "a 64-byte boundary")
  endif()
endforeach()
