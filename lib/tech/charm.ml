type variant = Logic | Logic_dsp | Logic_memory | Logic_memory_dsp

type ratios = {
  area : float;
  freq : float;
  dynamic_power : float;
}

(* Kuon & Rose's measured FPGA/ASIC gaps (the Charm `fpga2asic` constants,
   SNIPPETS.md): 90nm Stratix II vs standard-cell ASIC at the same node.
   Area and dynamic power are FPGA/ASIC (bigger is worse for the FPGA);
   frequency is ASIC/FPGA. Dynamic power is compared with both parts at the
   same clock, i.e. a switched-capacitance ratio; FPGA static power is
   excluded. Hard DSP and memory blocks narrow the gaps because their
   silicon is ASIC-like on both sides. *)
let ratios = function
  | Logic -> { area = 35.; freq = 3.4; dynamic_power = 14. }
  | Logic_dsp -> { area = 25.; freq = 3.5; dynamic_power = 12. }
  | Logic_memory -> { area = 33.; freq = 3.5; dynamic_power = 14. }
  | Logic_memory_dsp -> { area = 18.; freq = 3.0; dynamic_power = 7.1 }

let variant_name = function
  | Logic -> "logic"
  | Logic_dsp -> "logic-dsp"
  | Logic_memory -> "logic-memory"
  | Logic_memory_dsp -> "logic-memory-dsp"
