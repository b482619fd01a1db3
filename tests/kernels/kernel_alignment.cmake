# Checks that every latte::kernels function that gemm.cpp, im2col.cpp and
# pooling.cpp define starts at 0 mod 64 in a linked binary, as
# LATTE_KERNEL_ALIGN (src/kernels/code_align.h) sets them. The list comes
# from those members of the archive, so a function added there is checked
# too. Usage:
#
#   cmake -DNM=<nm> -DARCHIVE=<liblatte.a> -DBINARY=<linked binary>
#         -P kernel_alignment.cmake
execute_process(COMMAND ${NM} ${ARCHIVE}
                OUTPUT_VARIABLE Members RESULT_VARIABLE Status)
if(NOT Status EQUAL 0)
  message(FATAL_ERROR "${NM} failed on ${ARCHIVE}")
endif()
string(REPLACE "\n" ";" Lines "${Members}")
set(Member "")
set(Functions "")
foreach(Line IN LISTS Lines)
  if(Line MATCHES "^(.+\\.o):$")
    set(Member ${CMAKE_MATCH_1})
  elseif(Member MATCHES "^(gemm|im2col|pooling)\\.cpp\\.o$" AND
         Line MATCHES " T (_ZN5latte7kernels[A-Za-z0-9_]+)$")
    list(APPEND Functions ${CMAKE_MATCH_1})
  endif()
endforeach()
list(LENGTH Functions Count)
if(Count EQUAL 0)
  message(FATAL_ERROR "${ARCHIVE} defines no latte::kernels function in "
                      "gemm.cpp, im2col.cpp or pooling.cpp")
endif()

execute_process(COMMAND ${NM} ${BINARY}
                OUTPUT_VARIABLE Symbols RESULT_VARIABLE Status)
if(NOT Status EQUAL 0)
  message(FATAL_ERROR "${NM} failed on ${BINARY}")
endif()
foreach(Fn IN LISTS Functions)
  if(NOT Symbols MATCHES "([0-9a-f]+) T ${Fn}\n")
    message(FATAL_ERROR "${Fn} is not defined in ${BINARY}")
  endif()
  set(Addr ${CMAKE_MATCH_1})
  string(LENGTH ${Addr} Len)
  math(EXPR LowStart "${Len} - 2")
  string(SUBSTRING ${Addr} ${LowStart} 2 Low)
  math(EXPR Offset "0x${Low} % 64")
  if(Offset EQUAL 0)
    message(STATUS "${Fn} at 0x${Addr}")
  else()
    message(SEND_ERROR
            "${Fn} at 0x${Addr} starts ${Offset} bytes past a 64-byte "
            "boundary")
  endif()
endforeach()
message(STATUS "${Count} kernel functions checked")
