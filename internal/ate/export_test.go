package ate

import "fmt"

// Validate checks structural invariants (symmetric pairing table,
// positive sizes).
func (m *Machine) Validate() error {
	if m.Registers <= 0 || m.Ways <= 0 {
		return fmt.Errorf("ate: machine %q has non-positive sizes", m.Name)
	}
	if len(m.pairable) != m.Registers {
		return fmt.Errorf("ate: pairing table has %d rows, want %d", len(m.pairable), m.Registers)
	}
	for a := range m.pairable {
		if len(m.pairable[a]) != m.Registers {
			return fmt.Errorf("ate: pairing row %d has %d entries", a, len(m.pairable[a]))
		}
		for b := range m.pairable[a] {
			if m.pairable[a][b] != m.pairable[b][a] {
				return fmt.Errorf("ate: pairing table asymmetric at (%d,%d)", a, b)
			}
		}
	}
	return nil
}
